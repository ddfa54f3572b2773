package serve

// Re-attach tests for the coordinator's single transfer path: a reverse
// proxy in front of a stub worker cuts followed checkpoint streams
// mid-flight, and the coordinator must re-attach at its scenario cursor —
// or, when attaches keep delivering nothing, requeue the shard — while the
// merged CSV stays byte-identical to a single-worker run.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// cutProxy fronts one worker. Each cut follow attach passes its first keep
// non-blank lines (header, then records) and then fails like a dropped
// connection; every attach is cut when every is set, otherwise only each
// job's first. dropCursor strips the from cursor off every request, so
// the worker replays each stream from its start. The proxy counts follow
// attaches per job and plain checkpoint downloads.
type cutProxy struct {
	keep       int
	every      bool
	dropCursor bool

	mu        sync.Mutex
	attaches  map[string]int // follow attaches by checkpoint path
	cuts      int
	downloads int
}

// start serves the proxy in front of worker and returns its URL.
func (cp *cutProxy) start(t *testing.T, worker string) string {
	t.Helper()
	target, err := url.Parse(worker)
	if err != nil {
		t.Fatal(err)
	}
	cp.attaches = make(map[string]int)
	rp := httputil.NewSingleHostReverseProxy(target)
	rp.ErrorLog = log.New(io.Discard, "", 0)
	rp.ModifyResponse = cp.cut
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		if strings.HasSuffix(r.URL.Path, "/checkpoint") && q.Get("follow") == "" {
			cp.mu.Lock()
			cp.downloads++
			cp.mu.Unlock()
		}
		if cp.dropCursor {
			q.Del("from")
			r.URL.RawQuery = q.Encode()
		}
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

func (cp *cutProxy) cut(resp *http.Response) error {
	req := resp.Request
	if resp.StatusCode != http.StatusOK || !strings.HasSuffix(req.URL.Path, "/checkpoint") || req.URL.Query().Get("follow") == "" {
		return nil
	}
	cp.mu.Lock()
	cp.attaches[req.URL.Path]++
	cut := cp.every || cp.attaches[req.URL.Path] == 1
	if cut {
		cp.cuts++
	}
	cp.mu.Unlock()
	if !cut {
		return nil
	}
	br := bufio.NewReader(resp.Body)
	var prefix []byte
	for n := cp.keep; n > 0; {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return err
		}
		prefix = append(prefix, line...)
		if len(bytes.TrimSpace(line)) > 0 {
			n--
		}
	}
	resp.Body.Close()
	resp.Body = io.NopCloser(io.MultiReader(bytes.NewReader(prefix), iotest.ErrReader(errors.New("connection cut"))))
	return nil
}

func (cp *cutProxy) counts() (attaches map[string]int, cuts, downloads int) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	attaches = make(map[string]int, len(cp.attaches))
	for k, v := range cp.attaches {
		attaches[k] = v
	}
	return attaches, cp.cuts, cp.downloads
}

// TestFanoutReattach cuts followed checkpoint streams between a coordinator
// and its workers and checks the one transfer path recovers without a
// checkpoint download and without changing a byte of the merge.
func TestFanoutReattach(t *testing.T) {
	spec := JobSpec{Scenarios: 8, Seed: 7, MaxEvals: 8, Datasets: []string{"COMPAS"}}
	_, refURL := newStubWorker(t, time.Millisecond)
	refCSV := runToCSV(t, refURL, spec)

	t.Run("cut-after-one-record", func(t *testing.T) {
		// One worker, so the job splits into defaultShardsPerWorker
		// micro-shards of two scenarios; each job's first attach is cut
		// after the header and one record, and the re-attach must resume
		// at the second.
		_, workerURL := newStubWorker(t, time.Millisecond)
		cp := &cutProxy{keep: 2}
		coord, coordURL := newCoordinator(t, cp.start(t, workerURL))
		got := runToCSV(t, coordURL, spec)
		if !bytes.Equal(got, refCSV) {
			t.Fatalf("merged CSV differs from the single-worker reference (%d vs %d bytes)", len(got), len(refCSV))
		}
		_, cuts, downloads := cp.counts()
		snap := coord.rt.Metrics().Snapshot()
		if n := snap.Counter("serve.fanout.stream_fallbacks"); n != int64(cuts) || cuts != defaultShardsPerWorker {
			t.Fatalf("stream_fallbacks = %d, cut streams = %d, want both %d", n, cuts, defaultShardsPerWorker)
		}
		if n := snap.Counter("serve.fanout.records_streamed"); n != int64(spec.Scenarios) {
			t.Fatalf("records_streamed = %d, want %d", n, spec.Scenarios)
		}
		if n := snap.Counter("serve.fanout.shards_requeued"); n != 0 {
			t.Fatalf("shards_requeued = %d, want 0 (a cut stream re-attaches, it does not requeue)", n)
		}
		if n := countDoneJobs(t, workerURL); n != defaultShardsPerWorker {
			t.Fatalf("worker completed %d shard jobs, want %d micro-shards", n, defaultShardsPerWorker)
		}
		if downloads != 0 {
			t.Fatalf("coordinator made %d non-follow checkpoint downloads, want 0", downloads)
		}
	})

	t.Run("empty-attaches-requeue", func(t *testing.T) {
		// Every attach to the first worker is cut before its first record:
		// after pollFailLimit empty attaches the shard requeues, and the
		// healthy second worker completes every micro-shard.
		_, badURL := newStubWorker(t, time.Millisecond)
		_, goodURL := newStubWorker(t, time.Millisecond)
		cp := &cutProxy{keep: 1, every: true}
		coord, coordURL := newCoordinator(t, cp.start(t, badURL), goodURL)
		got := runToCSV(t, coordURL, spec)
		if !bytes.Equal(got, refCSV) {
			t.Fatalf("merged CSV differs from the single-worker reference (%d vs %d bytes)", len(got), len(refCSV))
		}
		attaches, _, downloads := cp.counts()
		if len(attaches) == 0 {
			t.Fatal("no shard job ever reached the cut worker")
		}
		for path, n := range attaches {
			if n != pollFailLimit {
				t.Fatalf("%s: %d follow attaches, want pollFailLimit=%d", path, n, pollFailLimit)
			}
		}
		snap := coord.rt.Metrics().Snapshot()
		if n := snap.Counter("serve.fanout.shards_requeued"); n != int64(len(attaches)) {
			t.Fatalf("shards_requeued = %d, want one per shard job on the cut worker (%d)", n, len(attaches))
		}
		if n, want := snap.Counter("serve.fanout.stream_fallbacks"), int64(len(attaches)*(pollFailLimit-1)); n != want {
			t.Fatalf("stream_fallbacks = %d, want %d", n, want)
		}
		if n := snap.Counter("serve.fanout.records_streamed"); n != int64(spec.Scenarios) {
			t.Fatalf("records_streamed = %d, want %d", n, spec.Scenarios)
		}
		if n, want := countDoneJobs(t, goodURL), 2*defaultShardsPerWorker; n != want {
			t.Fatalf("healthy worker completed %d shard jobs, want all %d micro-shards", n, want)
		}
		if downloads != 0 {
			t.Fatalf("coordinator made %d non-follow checkpoint downloads, want 0", downloads)
		}
	})

	t.Run("replay-behind-cursor-fails", func(t *testing.T) {
		// A worker that ignores the cursor replays the record the cut
		// stream already delivered: that is a permanent failure, never a
		// silent duplicate.
		_, workerURL := newStubWorker(t, time.Millisecond)
		cp := &cutProxy{keep: 2, dropCursor: true}
		_, coordURL := newCoordinator(t, cp.start(t, workerURL))
		code, st, eb, _ := postJob(t, coordURL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: code %d (%s)", code, eb.Error)
		}
		final := awaitState(t, coordURL, st.ID, StateFailed)
		if !strings.Contains(final.Error, "behind cursor") {
			t.Fatalf("job failed with %q, want a behind-cursor stream error", final.Error)
		}
	})
}
