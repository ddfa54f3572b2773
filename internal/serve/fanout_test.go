package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/core"
)

// fanoutRetry is an aggressive reassignment schedule for tests: enough
// attempts to walk past a dead worker quickly.
var fanoutRetry = core.RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond, CapBackoff: 50 * time.Millisecond, JitterSeed: 1}

// runToCSV submits spec, waits for done, and returns the result CSV.
func runToCSV(t *testing.T, url string, spec JobSpec) []byte {
	t.Helper()
	code, st, eb, _ := postJob(t, url, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d (%s)", code, eb.Error)
	}
	awaitState(t, url, st.ID, StateDone)
	return fetchCSV(t, url, st.ID)
}

// newWorker starts a plain worker daemon (a Server on its default builder)
// and returns its base URL plus the server for lifecycle control.
func newWorker(t *testing.T) (*Server, string) {
	t.Helper()
	srv := newTestServer(t, Config{Workers: 1, PoolWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// newCoordinator starts a coordinator whose jobs fan out across workers.
func newCoordinator(t *testing.T, workers ...string) (*Server, string) {
	t.Helper()
	fo := &Fanout{
		Workers: workers,
		Retry:   fanoutRetry,
		poll:    20 * time.Millisecond,
		Logf:    t.Logf,
	}
	srv := newTestServer(t, Config{Workers: 1, BuildPool: fo.BuildPool})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// TestFanout covers the multi-daemon coordinator against a single-daemon
// reference run of the same spec: the merged result must be byte-identical
// in the healthy case, with a dead worker in the rotation, and when a worker
// is drained out from under a running shard.
func TestFanout(t *testing.T) {
	spec := JobSpec{Scenarios: 4, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}}

	_, refURL := newWorker(t)
	refCSV := runToCSV(t, refURL, spec)

	t.Run("two-workers-bit-identical", func(t *testing.T) {
		_, w1 := newWorker(t)
		_, w2 := newWorker(t)
		coord, coordURL := newCoordinator(t, w1, w2)
		got := runToCSV(t, coordURL, spec)
		if !bytes.Equal(got, refCSV) {
			t.Fatalf("fanned-out result differs from single-daemon reference (%d vs %d bytes)", len(got), len(refCSV))
		}
		checkInvariant(t, coord)
	})

	t.Run("dead-worker-reassigned", func(t *testing.T) {
		// A worker that died before the job arrived: its URL refuses
		// connections, so its shard must migrate to the live worker.
		dead := httptest.NewServer(http.NotFoundHandler())
		deadURL := dead.URL
		dead.Close()
		_, w2 := newWorker(t)
		_, coordURL := newCoordinator(t, deadURL, w2)
		got := runToCSV(t, coordURL, spec)
		if !bytes.Equal(got, refCSV) {
			t.Fatal("result with a dead worker differs from the reference")
		}
	})

	t.Run("drained-worker-reassigned", func(t *testing.T) {
		// A worker that shuts down gracefully mid-job: its shard ends
		// drained (or its submissions answer 503), and either way the
		// coordinator recomputes the shard on the survivor.
		w1srv, w1 := newWorker(t)
		_, w2 := newWorker(t)
		_, coordURL := newCoordinator(t, w1, w2)
		code, st, _, _ := postJob(t, coordURL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit: code %d", code)
		}
		time.Sleep(150 * time.Millisecond) // let shards reach the workers
		if err := w1srv.Close(); err != nil {
			t.Fatal(err)
		}
		awaitState(t, coordURL, st.ID, StateDone)
		if got := fetchCSV(t, coordURL, st.ID); !bytes.Equal(got, refCSV) {
			t.Fatal("result after draining a worker differs from the reference")
		}
	})
}
