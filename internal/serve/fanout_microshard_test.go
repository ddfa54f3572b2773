package serve

// Micro-shard scheduling tests. These run against stub pool builders that
// synthesize records with a controlled per-record delay, so they exercise
// the coordinator's pull queue, speed balancing, and streaming merge
// without paying for real strategy training (TestFanout already proves
// byte-identity on real builds). The warm-store test is the exception: it
// needs real builds to populate the durable record cache.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// syntheticRecord fabricates a deterministic record for scenario i: the
// stub fleet's unit of work. Every strategy gets a result so the record
// renders through the real CSV writer.
func syntheticRecord(i int) bench.Record {
	results := make(map[string]core.RunResult)
	for _, name := range append([]string{core.OriginalFeaturesName}, core.StrategyNames...) {
		results[name] = core.RunResult{
			Satisfied:   i%2 == 0,
			TotalCost:   float64(i),
			Evaluations: i + 1,
		}
	}
	return bench.Record{ID: i, Dataset: fmt.Sprintf("synthetic-%d", i), Results: results}
}

// stubBuilder returns a PoolBuilder that emits syntheticRecord for every
// scenario of its shard, sleeping perRecord before each one, honoring
// Resume/Sink/cancellation like the real builder.
func stubBuilder(perRecord time.Duration) PoolBuilder {
	return func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		done := make(map[int]bool, len(opts.Resume))
		recs := append([]bench.Record(nil), opts.Resume...)
		for _, r := range opts.Resume {
			done[r.ID] = true
		}
		for i := 0; i < cfg.Scenarios; i++ {
			if !cfg.Shard.Contains(i) || done[i] {
				continue
			}
			select {
			case <-time.After(perRecord):
			case <-ctx.Done():
				return &bench.Pool{Config: cfg, Records: recs, Interrupted: true}, nil
			}
			rec := syntheticRecord(i)
			if opts.Sink != nil {
				_ = opts.Sink.Append(&rec)
			}
			recs = append(recs, rec)
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].ID < recs[b].ID })
		return &bench.Pool{Config: cfg, Records: recs}, nil
	}
}

// newStubWorker starts a worker whose pool builder synthesizes records at
// the given speed. testing.TB so benchmarks can reuse it.
func newStubWorker(t testing.TB, perRecord time.Duration) (*Server, string) {
	t.Helper()
	srv := newTestServer(t, Config{Workers: 2, BuildPool: stubBuilder(perRecord)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// countDoneJobs asks a worker how many jobs it completed.
func countDoneJobs(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []Status
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, j := range jobs {
		if j.State == StateDone {
			n++
		}
	}
	return n
}

// TestFanoutMicroShardsBalanceSpeed is the scheduling acceptance: with one
// worker an order of magnitude slower, the pull queue must route most
// micro-shards to the fast worker, every record must stream through the
// coordinator mid-shard, and the merged CSV must stay byte-identical to a
// single-worker run.
func TestFanoutMicroShardsBalanceSpeed(t *testing.T) {
	spec := JobSpec{Scenarios: 24, Seed: 7, MaxEvals: 8, Datasets: []string{"COMPAS"}}

	_, refURL := newStubWorker(t, time.Millisecond)
	refCSV := runToCSV(t, refURL, spec)

	_, fastURL := newStubWorker(t, 2*time.Millisecond)
	_, slowURL := newStubWorker(t, 60*time.Millisecond)
	rt := obs.New()
	fo := &Fanout{
		Workers: []string{slowURL, fastURL},
		Retry:   fanoutRetry,
		poll:    20 * time.Millisecond,
		Logf:    t.Logf,
	}
	coord := newTestServer(t, Config{Workers: 1, BuildPool: fo.BuildPool, Obs: rt})
	ts := httptest.NewServer(coord.Handler())
	t.Cleanup(ts.Close)

	got := runToCSV(t, ts.URL, spec)
	if !bytes.Equal(got, refCSV) {
		t.Fatalf("merged CSV differs from the single-worker reference (%d vs %d bytes)", len(got), len(refCSV))
	}

	fast, slow := countDoneJobs(t, fastURL), countDoneJobs(t, slowURL)
	t.Logf("fast worker completed %d shard jobs, slow worker %d", fast, slow)
	if fast <= slow {
		t.Fatalf("pull queue did not favor the fast worker: fast=%d slow=%d shard jobs", fast, slow)
	}
	if total, want := fast+slow, defaultShardsPerWorker*2; total != want {
		t.Fatalf("fleet completed %d shard jobs, want %d micro-shards", total, want)
	}

	snap := rt.Metrics().Snapshot()
	if streamed := snap.Counter("serve.fanout.records_streamed"); streamed != int64(spec.Scenarios) {
		t.Fatalf("serve.fanout.records_streamed = %d, want %d (every record must flow mid-shard)", streamed, spec.Scenarios)
	}
	if completed := snap.Counter("serve.fanout.shards_completed"); completed != int64(defaultShardsPerWorker*2) {
		t.Fatalf("serve.fanout.shards_completed = %d, want %d", completed, defaultShardsPerWorker*2)
	}
	checkInvariant(t, coord)
}

// TestFanoutWarmStoreSkips is the store-aware scheduling acceptance at
// service scope: after a cold fan-out populates a shared evaluation store,
// a fresh fleet over the same store replays every scenario from the durable
// record cache — zero strategy trainings, all scenarios counted as
// skipped_durable — and still merges byte-identically.
func TestFanoutWarmStoreSkips(t *testing.T) {
	spec := JobSpec{Scenarios: 2, Seed: 3, MaxEvals: 8, Datasets: []string{"COMPAS"}}
	storeDir := t.TempDir()

	runFleet := func(label string) ([]byte, int64, int64) {
		var workers []string
		rts := make([]*obs.Runtime, 2)
		for i := range rts {
			rts[i] = obs.New()
			srv := newTestServer(t, Config{Workers: 1, PoolWorkers: 2, EvalStore: storeDir, Obs: rts[i]})
			ts := httptest.NewServer(srv.Handler())
			workers = append(workers, ts.URL)
			// Close the store (flushing its WAL) before the next fleet opens
			// the directory.
			t.Cleanup(ts.Close)
			defer srv.Close()
		}
		fo := &Fanout{
			Workers: workers,
			Retry:   fanoutRetry,
			poll:    20 * time.Millisecond,
			Logf:    t.Logf,
		}
		coord := newTestServer(t, Config{Workers: 1, BuildPool: fo.BuildPool})
		ts := httptest.NewServer(coord.Handler())
		t.Cleanup(ts.Close)
		csv := runToCSV(t, ts.URL, spec)
		var trained, skipped int64
		for _, rt := range rts {
			snap := rt.Metrics().Snapshot()
			trained += snap.Counter("evals.trained")
			skipped += snap.Counter("pool.schedule.skipped_durable")
		}
		t.Logf("%s fleet: trained=%d skipped_durable=%d", label, trained, skipped)
		return csv, trained, skipped
	}

	coldCSV, coldTrained, coldSkipped := runFleet("cold")
	if coldTrained == 0 {
		t.Fatal("cold fleet trained nothing — the store cannot have been populated")
	}
	if coldSkipped != 0 {
		t.Fatalf("cold fleet skipped %d scenarios against an empty store", coldSkipped)
	}

	warmCSV, warmTrained, warmSkipped := runFleet("warm")
	if !bytes.Equal(warmCSV, coldCSV) {
		t.Fatal("warm fleet's merged CSV differs from the cold run")
	}
	if warmTrained != 0 {
		t.Fatalf("warm fleet trained %d evals, want 0 (fully store-served)", warmTrained)
	}
	if warmSkipped != int64(spec.Scenarios) {
		t.Fatalf("warm fleet skipped_durable = %d, want %d", warmSkipped, spec.Scenarios)
	}
}
