package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// streamSpec is the job every streaming test runs: small enough to finish in
// seconds, big enough to stream in visible steps.
var streamSpec = JobSpec{Scenarios: 3, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}}

var (
	refPoolOnce sync.Once
	refPoolVal  *bench.Pool
	refPoolErr  error
)

// refPool builds (once) the reference pool matching streamSpec, used both to
// script record-at-a-time builders and as ground truth for byte comparisons.
func refPool(t *testing.T) *bench.Pool {
	t.Helper()
	refPoolOnce.Do(func() {
		refPoolVal, refPoolErr = bench.BuildPoolResumed(context.Background(), bench.Config{
			Scenarios: streamSpec.Scenarios,
			Seed:      streamSpec.Seed,
			MaxEvals:  streamSpec.MaxEvals,
			Datasets:  streamSpec.Datasets,
			Workers:   2,
		}, bench.RunOptions{})
	})
	if refPoolErr != nil {
		t.Fatal(refPoolErr)
	}
	return refPoolVal
}

// replayBuilder is a PoolBuilder that replays ref's records one per gate
// receive (a closed gate releases everything), so tests control exactly when
// each record becomes visible to streams.
func replayBuilder(ref *bench.Pool, gate chan struct{}) PoolBuilder {
	return func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		done := make(map[int]bool, len(opts.Resume))
		for _, r := range opts.Resume {
			done[r.ID] = true
		}
		for i := range ref.Records {
			rec := ref.Records[i]
			if done[rec.ID] {
				continue
			}
			select {
			case <-gate:
			case <-ctx.Done():
				return &bench.Pool{Config: cfg, Interrupted: true}, nil
			}
			if opts.Sink != nil {
				_ = opts.Sink.Append(&rec)
			}
		}
		return &bench.Pool{Config: cfg, Records: append([]bench.Record(nil), ref.Records...)}, nil
	}
}

// fetchCSV GETs a done job's plain result.
func fetchCSV(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: code %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// waitGoroutines waits for the goroutine count to settle back to at most
// base+slack, dumping stacks on timeout. Streaming handlers must exit when
// their client goes away.
func waitGoroutines(t *testing.T, base, slack int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+slack {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Errorf("goroutines leaked: %d, want <= %d\n%s", runtime.NumGoroutine(), base+slack, buf[:runtime.Stack(buf, true)])
}

// TestResultFollowStreamsIncrementally drives the chunked-CSV follow stream
// record by record and checks the streamed bytes are exactly the terminal
// CSV dump, with the job state declared in the trailer.
func TestResultFollowStreamsIncrementally(t *testing.T) {
	ref := refPool(t)
	gate := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, st, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("follow content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	var streamed bytes.Buffer
	readLines := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			line, err := br.ReadString('\n')
			streamed.WriteString(line)
			if err != nil {
				t.Fatalf("stream ended early: %v (after %q)", err, line)
			}
		}
	}
	// The header row arrives before any record completes.
	readLines(1)
	rowsPerRecord := 1 + len(core.StrategyNames)
	for i := 0; i < streamSpec.Scenarios; i++ {
		gate <- struct{}{}
		readLines(rowsPerRecord)
	}
	// All records released: the job finishes and the stream closes.
	rest, err := io.ReadAll(br)
	if err != nil {
		t.Fatal(err)
	}
	streamed.Write(rest)
	if got := resp.Trailer.Get(trailerJobState); got != string(StateDone) {
		t.Fatalf("trailer %s = %q, want %q", trailerJobState, got, StateDone)
	}

	awaitState(t, ts.URL, st.ID, StateDone)
	final := fetchCSV(t, ts.URL, st.ID)
	if !bytes.Equal(streamed.Bytes(), final) {
		t.Fatalf("streamed CSV differs from final dump:\nstreamed %d bytes\nfinal %d bytes", streamed.Len(), len(final))
	}
	checkInvariant(t, srv)
}

// TestCheckpointFollowStream drives the NDJSON checkpoint follow stream
// record by record: the header line must decode to the job's pool config,
// idle periods must heartbeat blank lines, every released record must
// arrive as one JSON line, and the completed stream must parse to exactly
// the record set of the terminal checkpoint download.
func TestCheckpointFollowStream(t *testing.T) {
	ref := refPool(t)
	gate := make(chan struct{})
	oldKeepalive := checkpointKeepalive
	checkpointKeepalive = 50 * time.Millisecond
	t.Cleanup(func() { checkpointKeepalive = oldKeepalive })
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, st, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/checkpoint?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow: code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("follow content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	hdrLine, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	hcfg, err := bench.DecodeCheckpointHeader([]byte(hdrLine))
	if err != nil {
		t.Fatalf("header line does not decode: %v", err)
	}
	if hcfg.Scenarios != streamSpec.Scenarios || hcfg.Seed != streamSpec.Seed {
		t.Fatalf("streamed header config = %d scenarios seed %d, want %d/%d",
			hcfg.Scenarios, hcfg.Seed, streamSpec.Scenarios, streamSpec.Seed)
	}
	// Nothing released yet: the next line must be a keepalive heartbeat.
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(line) != "" {
		t.Fatalf("expected a blank keepalive line while idle, got %q", line)
	}
	readRecord := func() bench.Record {
		t.Helper()
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
			if strings.TrimSpace(line) == "" {
				continue // keepalive
			}
			var rec bench.Record
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				t.Fatalf("bad record line %q: %v", line, err)
			}
			return rec
		}
	}
	var streamed []bench.Record
	for i := 0; i < streamSpec.Scenarios; i++ {
		gate <- struct{}{}
		rec := readRecord()
		if rec.ID != i {
			t.Fatalf("streamed record %d has ID %d (contiguous-order contract broken)", i, rec.ID)
		}
		streamed = append(streamed, rec)
	}
	if _, err := io.Copy(io.Discard, br); err != nil {
		t.Fatal(err)
	}
	if got := resp.Trailer.Get(trailerJobState); got != string(StateDone) {
		t.Fatalf("trailer %s = %q, want %q", trailerJobState, got, StateDone)
	}

	// The completed stream must parse to the same records as the terminal
	// checkpoint download (both travel the same JSON encoding).
	awaitState(t, ts.URL, st.ID, StateDone)
	dl, err := http.Get(ts.URL + "/jobs/" + st.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Body.Close()
	if dl.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint download: code %d", dl.StatusCode)
	}
	var final []bench.Record
	sc := bufio.NewScanner(dl.Body)
	for i := 0; sc.Scan(); i++ {
		if i == 0 || len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue // header line
		}
		var rec bench.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		final = append(final, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(final) != len(streamed) {
		t.Fatalf("streamed %d records, final checkpoint has %d", len(streamed), len(final))
	}
	for i := range final {
		a, _ := json.Marshal(streamed[i])
		b, _ := json.Marshal(final[i])
		if !bytes.Equal(a, b) {
			t.Fatalf("streamed record %d differs from the checkpointed one:\n%s\n%s", i, a, b)
		}
	}
	checkInvariant(t, srv)

	// The from cursor a broken stream re-attaches with: the stream starts at
	// the first shard member at or past from, and a cursor that is not a
	// scenario ID in [0, scenarios] is a 400. Shard 1/2 of six scenarios
	// owns IDs 1, 3 and 5.
	shardSrv := newTestServer(t, Config{Workers: 1, BuildPool: stubBuilder(0)})
	sts := httptest.NewServer(shardSrv.Handler())
	defer sts.Close()
	sharded := JobSpec{Scenarios: 6, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}, ShardIndex: 1, ShardCount: 2}
	code, sst, eb, _ := postJob(t, sts.URL, sharded)
	if code != http.StatusAccepted {
		t.Fatalf("sharded submit: code %d (%s)", code, eb.Error)
	}
	awaitState(t, sts.URL, sst.ID, StateDone)
	for _, tc := range []struct {
		from string
		code int
		ids  []int
	}{
		{"0", http.StatusOK, []int{1, 3, 5}},
		{"1", http.StatusOK, []int{1, 3, 5}},
		{"2", http.StatusOK, []int{3, 5}},
		{"5", http.StatusOK, []int{5}},
		{"6", http.StatusOK, nil},
		{"-1", http.StatusBadRequest, nil},
		{"abc", http.StatusBadRequest, nil},
		{"7", http.StatusBadRequest, nil},
	} {
		resp, err := http.Get(sts.URL + "/jobs/" + sst.ID + "/checkpoint?follow=1&from=" + tc.from)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code {
			t.Fatalf("from=%s: code %d, want %d (%s)", tc.from, resp.StatusCode, tc.code, body)
		}
		if tc.code != http.StatusOK {
			continue
		}
		var ids []int
		for i, line := range bytes.Split(body, []byte("\n")) {
			if i == 0 || len(bytes.TrimSpace(line)) == 0 {
				continue // header line, keepalives
			}
			var rec bench.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("from=%s: bad record line %q: %v", tc.from, line, err)
			}
			ids = append(ids, rec.ID)
		}
		if fmt.Sprint(ids) != fmt.Sprint(tc.ids) {
			t.Fatalf("from=%s: streamed IDs %v, want %v", tc.from, ids, tc.ids)
		}
		if got := resp.Trailer.Get(trailerJobState); got != string(StateDone) {
			t.Fatalf("from=%s: trailer %s = %q, want %q", tc.from, trailerJobState, got, StateDone)
		}
	}
}

// TestResultFollowClientDisconnect kills a follow stream mid-job and checks
// the job is unharmed: it still completes, its result matches the reference,
// and the streaming goroutine does not outlive its client.
func TestResultFollowClientDisconnect(t *testing.T) {
	ref := refPool(t)
	gate := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, st, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	base := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+st.ID+"/result?follow=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // header row
		t.Fatal(err)
	}
	gate <- struct{}{} // one record streams...
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel() // ...then the client vanishes mid-stream
	resp.Body.Close()
	client.CloseIdleConnections()

	close(gate) // release the rest of the job
	awaitState(t, ts.URL, st.ID, StateDone)
	got := fetchCSV(t, ts.URL, st.ID)
	var want bytes.Buffer
	if err := bench.WritePoolCSV(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("result CSV corrupted after mid-stream disconnect")
	}
	waitGoroutines(t, base, 2)
	checkInvariant(t, srv)
}

// sseFrame is one parsed SSE event.
type sseFrame struct {
	event string
	data  string
}

// readSSE parses an SSE stream to EOF.
func readSSE(t *testing.T, r io.Reader) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		}
	}
	if err := sc.Err(); err != nil && err != io.ErrUnexpectedEOF {
		t.Fatalf("sse read: %v", err)
	}
	return frames
}

// TestEventsSSEBridge runs a real job under a tracer and checks the SSE
// stream carries the job's span tree (scenario lifecycle), folds the eval
// firehose into memo counters instead of forwarding it, and terminates
// shortly after the job does.
func TestEventsSSEBridge(t *testing.T) {
	oldInterval, oldGrace := sseProgressInterval, sseEndGrace
	sseProgressInterval, sseEndGrace = 50*time.Millisecond, 100*time.Millisecond
	defer func() { sseProgressInterval, sseEndGrace = oldInterval, oldGrace }()

	bcast := obs.NewBroadcastSink(0)
	srv := newTestServer(t, Config{
		Workers:        1,
		PoolWorkers:    2,
		TraceBroadcast: bcast,
		Obs:            obs.New(obs.WithTracer(obs.NewTracer(bcast))),
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, st, _, _ := postJob(t, ts.URL, JobSpec{Scenarios: 2, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	frames := readSSE(t, resp.Body) // EOF arrives via the post-terminal grace
	counts := make(map[string]int)
	for _, f := range frames {
		counts[f.event]++
	}
	if counts["status"] == 0 {
		t.Fatalf("no status frames in %v", counts)
	}
	if counts["scenario_start"] < 2 || counts["scenario_end"] < 2 {
		t.Fatalf("scenario lifecycle missing from stream: %v", counts)
	}
	if counts["eval"] != 0 {
		t.Fatalf("per-evaluation events must be folded, not forwarded: %v", counts)
	}
	var last progressEvent
	for _, f := range frames {
		if f.event == "status" || f.event == "progress" {
			if err := json.Unmarshal([]byte(f.data), &last); err != nil {
				t.Fatalf("bad progress payload %q: %v", f.data, err)
			}
		}
	}
	if last.State != StateDone {
		t.Fatalf("final progress state %s, want done", last.State)
	}
	if last.RecordsDone != 2 || last.RecordsTotal != 2 {
		t.Fatalf("final progress records %d/%d, want 2/2", last.RecordsDone, last.RecordsTotal)
	}
	if last.Spec.Scenarios != 2 || last.Cost <= 0 {
		t.Fatalf("final frame does not carry the job's whole status: %+v", last.Status)
	}
	if last.MemoHits+last.MemoMisses == 0 {
		t.Fatal("eval events were never counted into the memo summary")
	}
	checkInvariant(t, srv)
}

// TestEventsSSEDisconnect abandons an SSE stream mid-job: the job completes
// untouched and the bridge goroutine exits with its client.
func TestEventsSSEDisconnect(t *testing.T) {
	ref := refPool(t)
	gate := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, st, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil { // initial status frame
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	client.CloseIdleConnections()

	close(gate)
	awaitState(t, ts.URL, st.ID, StateDone)
	waitGoroutines(t, base, 2)
	checkInvariant(t, srv)
}

// TestCheckpointEndpoint guards the shard-transfer endpoint: 409 while the
// job runs, and once done, a byte stream that parses as a complete
// checkpoint for the job's config and is, byte for byte and trailer too,
// the job's followed stream.
func TestCheckpointEndpoint(t *testing.T) {
	ref := refPool(t)
	gate := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, st, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	if resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/checkpoint"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("running checkpoint: code %d, want 409", resp.StatusCode)
		}
	}
	close(gate)
	awaitState(t, ts.URL, st.ID, StateDone)

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint: code %d, err %v", resp.StatusCode, err)
	}
	path := filepath.Join(t.TempDir(), "downloaded.ckpt")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, records, err := bench.ReadCheckpoint(path)
	if err != nil {
		t.Fatalf("downloaded checkpoint does not parse: %v", err)
	}
	if cfg.Scenarios != streamSpec.Scenarios || len(records) != streamSpec.Scenarios {
		t.Fatalf("downloaded checkpoint has %d records for %d scenarios", len(records), cfg.Scenarios)
	}
	if got := resp.Trailer.Get(trailerJobState); got != string(StateDone) {
		t.Fatalf("download trailer %s = %q, want %q", trailerJobState, got, StateDone)
	}
	follow, err := http.Get(ts.URL + "/jobs/" + st.ID + "/checkpoint?follow=1")
	if err != nil {
		t.Fatal(err)
	}
	followed, err := io.ReadAll(follow.Body)
	follow.Body.Close()
	if err != nil || follow.StatusCode != http.StatusOK {
		t.Fatalf("followed checkpoint: code %d, err %v", follow.StatusCode, err)
	}
	if !bytes.Equal(body, followed) {
		t.Fatalf("plain download differs from the followed stream:\n%s\nvs\n%s", body, followed)
	}
}

// TestSubmitBodyBounds pins the request-body hygiene of POST /jobs: a body
// over the cap is 413, trailing garbage after the JSON document is 400, and
// benign trailing whitespace still parses.
func TestSubmitBodyBounds(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(refPool(t), nil)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(body string) (int, errorBody) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	huge := fmt.Sprintf(`{"scenarios":1,"seed":1,"tenant":%q}`, strings.Repeat("a", maxSubmitBody+1024))
	if code, eb := post(huge); code != http.StatusRequestEntityTooLarge || eb.Reason != RejectInvalid {
		t.Fatalf("oversized body: code %d reason %q, want 413/%s", code, eb.Reason, RejectInvalid)
	}
	for _, body := range []string{
		`{"scenarios":1,"seed":1}{"scenarios":2,"seed":2}`,
		`{"scenarios":1,"seed":1}garbage`,
		`{"scenarios":1,"seed":1} "trailing string"`,
	} {
		if code, eb := post(body); code != http.StatusBadRequest || eb.Reason != RejectInvalid {
			t.Fatalf("trailing garbage %q: code %d reason %q, want 400/%s", body, code, eb.Reason, RejectInvalid)
		}
	}
	if code, _ := post(`{"scenarios":1,"seed":1,"datasets":["COMPAS"]}` + "\n  \n"); code != http.StatusAccepted {
		t.Fatalf("trailing whitespace: code %d, want 202", code)
	}
	checkInvariant(t, srv)
}

// TestHealthRefreshesScrapeGauges pins the /healthz half of the scrape-gauge
// contract: a deployment that only ever probes /healthz still reads a live
// oldest-queued-age, without needing a /metrics scrape to refresh it.
func TestHealthRefreshesScrapeGauges(t *testing.T) {
	block := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, BuildPool: func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return &bench.Pool{Config: cfg, Interrupted: true}, nil
	}})
	defer close(block)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One job occupies the single worker; the second sits queued and ages.
	for i := 0; i < 2; i++ {
		if code, _, _, _ := postJob(t, ts.URL, JobSpec{Scenarios: 1, Seed: uint64(i)}); code != http.StatusAccepted {
			t.Fatalf("submit %d: code %d", i, code)
		}
	}
	time.Sleep(1100 * time.Millisecond)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: code %d", resp.StatusCode)
	}
	if age := srv.rt.Metrics().Snapshot().Gauges["serve.queue.oldest_age_seconds"]; age < 1 {
		t.Fatalf("oldest_age_seconds = %d after /healthz with a 1.1s-old queued job; /healthz did not refresh scrape gauges", age)
	}
}

// TestMetricsProcessGauges pins the process gauges: GET /metrics refreshes
// them (resident set and open descriptors where /proc exists), while
// /healthz, which probes poll, leaves them alone.
func TestMetricsProcessGauges(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, EvalStore: t.TempDir()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: code %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	get("/healthz")
	if _, ok := srv.rt.Metrics().Snapshot().Gauges["process.goroutines"]; ok {
		t.Fatal("/healthz refreshed the process gauges")
	}
	runtime.GC() // the live heap is what the last collection measured
	var snap obs.Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"process.heap_live_bytes": 1, "process.goroutines": 1}
	if runtime.GOOS == "linux" {
		want["process.resident_bytes"] = 1
		want["process.open_fds"] = 3
	}
	for name, least := range want {
		if v, ok := snap.Gauges[name]; !ok || v < least {
			t.Errorf("%s = %d (present %v), want at least %d", name, v, ok, least)
		}
	}
}
