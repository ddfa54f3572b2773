package serve

// Scheduling benchmark for the acceptance criterion "micro-shard scheduling
// beats static sharding wall-clock with a 4× slowed worker". Both benchmarks
// drive the same stub fleet — one worker synthesizing a record per 1ms, one
// per 4ms — through Fanout.BuildPool directly; the only difference is
// shardsPerWorker. Static partitioning (1) pins half the scenarios behind
// the slow worker, so the job's wall clock is the slow worker's full share;
// the micro-shard pull queue (default 4) lets the fast worker drain most of
// the backlog while the slow one finishes a single small shard.

import (
	"context"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
)

func benchmarkFanout(b *testing.B, shardsPerWorker int) {
	_, fastURL := newStubWorker(b, time.Millisecond)
	_, slowURL := newStubWorker(b, 4*time.Millisecond)
	fo := &Fanout{
		Workers:         []string{slowURL, fastURL},
		Retry:           fanoutRetry,
		poll:            10 * time.Millisecond,
		shardsPerWorker: shardsPerWorker,
	}
	cfg := bench.Config{
		Label:     "bench",
		Scenarios: 32,
		Seed:      7,
		MaxEvals:  8,
		Datasets:  []string{"COMPAS"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pool, err := fo.BuildPool(context.Background(), cfg, bench.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(pool.Records) != cfg.Scenarios {
			b.Fatalf("merged %d records, want %d", len(pool.Records), cfg.Scenarios)
		}
	}
}

// BenchmarkFanoutStaticShards reproduces PR 9's one-shard-per-worker layout.
func BenchmarkFanoutStaticShards(b *testing.B) { benchmarkFanout(b, 1) }

// BenchmarkFanoutMicroShards is the pull queue at its default multiplier.
func BenchmarkFanoutMicroShards(b *testing.B) { benchmarkFanout(b, defaultShardsPerWorker) }
