package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// getBody GETs url and returns the body of a 200 answer.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: code %d (%s)", url, resp.StatusCode, body)
	}
	return body
}

// resident reads the serve.jobs.records_resident gauge.
func resident(s *Server) int64 {
	return s.rt.Metrics().Snapshot().Gauges["serve.jobs.records_resident"]
}

// TestRecordsResidentGauge pins the record bound of a long-lived daemon:
// jobs followed to completion keep no records in memory once their streams
// end, and a later GET /result reads the records back from the checkpoint
// to the very bytes the followed stream carried, without making any
// resident again.
func TestRecordsResidentGauge(t *testing.T) {
	ref := refPool(t)
	gate := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 1, BuildPool: replayBuilder(ref, gate)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rowsPerRecord := 1 + len(core.StrategyNames)
	var ids []string
	var followed [][]byte
	for i := 0; i < 3; i++ {
		code, st, _, _ := postJob(t, ts.URL, streamSpec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: code %d", i, code)
		}
		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result?follow=1")
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(resp.Body)
		var got bytes.Buffer
		readLines := func(n int) {
			t.Helper()
			for k := 0; k < n; k++ {
				line, err := br.ReadString('\n')
				got.WriteString(line)
				if err != nil {
					t.Fatalf("job %d: stream ended early: %v", i, err)
				}
			}
		}
		readLines(1) // the header row
		gate <- struct{}{}
		readLines(rowsPerRecord)
		// The job cannot finish before the gate lets its other records
		// through, so the streamed record is still resident.
		if n := resident(srv); n < 1 {
			t.Fatalf("job %d: records_resident = %d mid-stream, want >= 1", i, n)
		}
		for k := 1; k < streamSpec.Scenarios; k++ {
			gate <- struct{}{}
		}
		rest, err := io.ReadAll(br)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got.Write(rest)
		if state := resp.Trailer.Get(trailerJobState); state != string(StateDone) {
			t.Fatalf("job %d: trailer state %q", i, state)
		}
		ids = append(ids, st.ID)
		followed = append(followed, got.Bytes())
	}
	for _, id := range ids {
		awaitState(t, ts.URL, id, StateDone)
	}
	if n := resident(srv); n != 0 {
		t.Fatalf("records_resident = %d after every followed job finished, want 0", n)
	}
	for i, id := range ids {
		if got := fetchCSV(t, ts.URL, id); !bytes.Equal(got, followed[i]) {
			t.Fatalf("job %s: GET /result after release differs from its followed stream", id)
		}
		if n := resident(srv); n != 0 {
			t.Fatalf("records_resident = %d after reading %s back, want 0", n, id)
		}
	}
	checkInvariant(t, srv)
}

// TestReleasedJobServesIdenticalBytes is the byte-identity contract of the
// release: for a cold job, a record-tier job and a fan-out shard job, the
// plain result, the followed result and the followed checkpoint from a
// cursor serve the same bytes while the records are resident, after the
// job releases them, and after a daemon restart.
func TestReleasedJobServesIdenticalBytes(t *testing.T) {
	dir, store := t.TempDir(), t.TempDir()
	gate := make(chan struct{}, 1)
	gated := func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return bench.BuildPoolResumed(ctx, cfg, opts)
	}
	srv, err := New(Config{Dir: dir, EvalStore: store, Workers: 1, PoolWorkers: 2, BuildPool: gated, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Scenarios: 2, Seed: 5, MaxEvals: 10, Datasets: []string{"COMPAS"}}
	shard := JobSpec{Scenarios: 4, Seed: 5, MaxEvals: 10, Datasets: []string{"COMPAS"}, ShardIndex: 1, ShardCount: 2}
	cases := []struct {
		name string
		spec JobSpec
		from int  // the checkpoint stream's cursor
		warm bool // every record replays from the store's record tier
	}{
		{"cold", spec, 1, false},
		{"record-tier", spec, 1, true}, // the cold job stored its records
		{"shard", shard, 2, false},
	}
	skipped := func() int64 { return srv.rt.Metrics().Snapshot().Counter("pool.schedule.skipped_durable") }
	views := func(base, id string, from int) [3][]byte {
		return [3][]byte{
			getBody(t, base+"/jobs/"+id+"/result"),
			getBody(t, base+"/jobs/"+id+"/result?follow=1"),
			getBody(t, base+"/jobs/"+id+"/checkpoint?follow=1&from="+strconv.Itoa(from)),
		}
	}
	names := [3]string{"GET /result", "GET /result?follow=1", "GET /checkpoint?follow=1&from=k"}
	same := func(what string, want, got [3][]byte) {
		t.Helper()
		for v := range want {
			if !bytes.Equal(want[v], got[v]) {
				t.Fatalf("%s: %s differs (%d vs %d bytes)", what, names[v], len(want[v]), len(got[v]))
			}
		}
	}
	ids := make([]string, len(cases))
	before := make([][3][]byte, len(cases))
	for i, c := range cases {
		code, st, eb, _ := postJob(t, ts.URL, c.spec)
		if code != http.StatusAccepted {
			t.Fatalf("%s: submit code %d (%s)", c.name, code, eb.Error)
		}
		job, _ := srv.Job(st.ID)
		_, detach, err := job.reader() // attached before the job ends: keeps its records resident
		if err != nil {
			t.Fatal(err)
		}
		skippedBefore := skipped()
		gate <- struct{}{}
		done := awaitState(t, ts.URL, st.ID, StateDone)
		if n := skipped() - skippedBefore; c.warm && n != int64(done.RecordsDone) {
			t.Fatalf("%s: %d of %d scenarios replayed from the record tier", c.name, n, done.RecordsDone)
		}
		if n := resident(srv); n != int64(done.RecordsDone) || n == 0 {
			t.Fatalf("%s: records_resident = %d while attached, want %d", c.name, n, done.RecordsDone)
		}
		before[i] = views(ts.URL, st.ID, c.from)
		detach()
		if n := resident(srv); n != 0 {
			t.Fatalf("%s: records_resident = %d after the last reader detached, want 0", c.name, n)
		}
		same(c.name+" after release", before[i], views(ts.URL, st.ID, c.from))
		ids[i] = st.ID
	}
	if !bytes.Equal(before[0][0], before[1][0]) {
		t.Fatal("the record-tier job's result differs from the cold job's")
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	restarted := newTestServer(t, Config{Dir: dir, EvalStore: store, Workers: 1})
	rts := httptest.NewServer(restarted.Handler())
	defer rts.Close()
	for i, c := range cases {
		same(c.name+" after a restart", before[i], views(rts.URL, ids[i], c.from))
	}
	if n := resident(restarted); n != 0 {
		t.Fatalf("records_resident = %d on a restarted daemon serving done jobs, want 0", n)
	}
}

// TestReleasedReaderEvictionRace: a request that looked a released job up
// just before gcTerminal evicted it reads its checkpoint back after the
// file is gone, and a checkpoint that lost records reads back short. Each
// must answer a JSON error, never a 200 with a short CSV or NDJSON body.
func TestReleasedReaderEvictionRace(t *testing.T) {
	srv := newTestServer(t, Config{
		Workers: 1, BuildPool: instantBuild, MaxTerminalJobs: 1,
		GCInterval: time.Hour, // this test drives the sweep itself
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Scenarios: 2, Seed: 1, Datasets: []string{"COMPAS"}}
	var ids []string
	for i := 0; i < 2; i++ {
		code, st, _, _ := postJob(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: code %d", i, code)
		}
		awaitState(t, ts.URL, st.ID, StateDone)
		ids = append(ids, st.ID)
	}
	if n := resident(srv); n != 0 {
		t.Fatalf("records_resident = %d, want both finished jobs released", n)
	}
	held, _ := srv.Job(ids[0])
	if n := srv.gcTerminal(time.Now()); n != 1 {
		t.Fatalf("gc evicted %d jobs, want the oldest", n)
	}
	if _, err := os.Stat(held.ckpt); !os.IsNotExist(err) {
		t.Fatalf("evicted job's checkpoint still there (%v)", err)
	}

	wantJSONError := func(what string, code int, rec *httptest.ResponseRecorder) {
		t.Helper()
		var eb errorBody
		if rec.Code != code || rec.Header().Get("Content-Type") != "application/json" ||
			json.Unmarshal(rec.Body.Bytes(), &eb) != nil || eb.Error == "" {
			t.Fatalf("%s: code %d, type %q, body %q; want a %d JSON error",
				what, rec.Code, rec.Header().Get("Content-Type"), rec.Body.String(), code)
		}
	}
	// The handlers' own lookup would now miss, so serve the held job as a
	// request that looked it up before the sweep does.
	for _, c := range []struct {
		path  string
		serve func(http.ResponseWriter, *http.Request, *Job)
	}{
		{"/result", srv.streamResult},
		{"/result?follow=1", srv.streamResult},
		{"/checkpoint?follow=1&from=0", srv.streamCheckpoint},
	} {
		rec := httptest.NewRecorder()
		c.serve(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+held.ID+c.path, nil), held)
		wantJSONError("evicted "+c.path, http.StatusGone, rec)
	}

	// The surviving job's checkpoint loses its last record line: reading it
	// back short is as much an error as reading nothing.
	kept, _ := srv.Job(ids[1])
	data, err := os.ReadFile(kept.ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if err := os.WriteFile(kept.ckpt, bytes.Join(lines[:len(lines)-2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/result", "/result?follow=1", "/checkpoint", "/checkpoint?follow=1&from=0"} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+kept.ID+path, nil))
		wantJSONError("short "+path, http.StatusInternalServerError, rec)
	}
}
