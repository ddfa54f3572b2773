package bench

import (
	"context"
	"reflect"
	"testing"

	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
)

// buildWithStore builds the pool against an explicitly owned store handle on
// dir and returns the pool plus the handle's stats at close.
func buildWithStore(t *testing.T, ctx context.Context, cfg Config, dir string) (*Pool, evalstore.Stats) {
	t.Helper()
	store, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildPoolResumed(ctx, cfg, RunOptions{Store: store})
	if err != nil {
		store.Close()
		t.Fatal(err)
	}
	st := store.Stats()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return p, st
}

// TestPoolDurableStoreDeterminism is the tentpole acceptance at pool scope:
// a warm rerun against a populated store yields byte-identical records while
// training nothing — every evaluation is a disk hit.
func TestPoolDurableStoreDeterminism(t *testing.T) {
	cfg := obsConfig()
	cfg.Label = "durable-test"
	ctx := context.Background()

	ref, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cold, coldStats := buildWithStore(t, ctx, cfg, dir)
	if !reflect.DeepEqual(ref.Records, cold.Records) {
		t.Fatal("attaching a durable store changed the cold run's records")
	}
	if coldStats.Puts == 0 {
		t.Fatalf("cold run stored nothing: %s", coldStats)
	}
	if coldStats.HitsDisk != 0 {
		t.Fatalf("cold run hit an empty store: %s", coldStats)
	}

	warm, warmStats := buildWithStore(t, ctx, cfg, dir)
	if !reflect.DeepEqual(ref.Records, warm.Records) {
		t.Fatal("warm rerun diverged from the cold records")
	}
	if warmStats.HitsDisk == 0 {
		t.Fatalf("warm rerun never hit the store: %s", warmStats)
	}
	if warmStats.Misses != 0 || warmStats.Puts != 0 {
		t.Fatalf("warm rerun should be served entirely from disk: %s", warmStats)
	}
	t.Logf("cold %s", coldStats)
	t.Logf("warm %s", warmStats)
}

// TestShardedPoolSharesStore is the multi-process acceptance: two disjoint
// shards populate one store directory through separate handles (exactly what
// two shard processes do — flock and O_EXCL behave identically), then a full
// run over the same scenarios is served entirely by their combined output.
func TestShardedPoolSharesStore(t *testing.T) {
	cfg := obsConfig()
	cfg.Label = "shard-test"
	ctx := context.Background()
	dir := t.TempDir()

	ref, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for shard := 0; shard < 2; shard++ {
		scfg := cfg
		scfg.Shard = ShardSpec{Index: shard, Count: 2}
		p, stats := buildWithStore(t, ctx, scfg, dir)
		if p.Interrupted {
			t.Fatalf("shard %d interrupted", shard)
		}
		if stats.Puts == 0 {
			t.Fatalf("shard %d stored nothing: %s", shard, stats)
		}
		// Shards partition scenarios, so a shard's own first pass never hits.
		if stats.HitsDisk != 0 {
			t.Fatalf("shard %d hit entries it did not own: %s", shard, stats)
		}
	}

	// The "second shard" of the acceptance criterion: a later process over
	// scenarios other processes already trained must report disk hits > 0 —
	// here the full pool, whose every scenario one of the shards completed.
	full, stats := buildWithStore(t, ctx, cfg, dir)
	if stats.HitsDisk == 0 {
		t.Fatalf("full run after both shards reported no disk hits: %s", stats)
	}
	if stats.Misses != 0 || stats.Puts != 0 {
		t.Fatalf("full run should retrain nothing after both shards: %s", stats)
	}
	if !reflect.DeepEqual(ref.Records, full.Records) {
		t.Fatal("store-served full run diverged from the direct build")
	}
	t.Logf("full run after shards: %s", stats)
}

// TestPoolDurableObsInvariant checks the evalstore.* accounting invariant at
// quiesce: every decided memo acquire is exactly one of a memory hit, a disk
// hit, or a miss — and the evaluator-side counters agree with the memo ones.
func TestPoolDurableObsInvariant(t *testing.T) {
	cfg := obsConfig()
	dir := t.TempDir()

	for _, tag := range []string{"cold", "warm"} {
		rt := obs.New()
		ctx := obs.NewContext(context.Background(), rt)
		store, err := evalstore.Open(dir, evalstore.Options{Metrics: rt.Metrics()})
		if err != nil {
			t.Fatal(err)
		}
		_, err = BuildPoolResumed(ctx, cfg, RunOptions{Store: store})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		snap := rt.Metrics().Snapshot()
		lookups := snap.Counter("evalstore.lookups")
		hitsMem := snap.Counter("evalstore.hits_mem")
		hitsDisk := snap.Counter("evalstore.hits_disk")
		misses := snap.Counter("evalstore.misses")
		skipped := snap.Counter("pool.schedule.skipped_durable")
		if lookups != hitsMem+hitsDisk+misses {
			t.Fatalf("%s: evalstore.lookups %d != hits_mem %d + hits_disk %d + misses %d",
				tag, lookups, hitsMem, hitsDisk, misses)
		}
		// The disk tier refines, never distorts, the memo accounting: decided
		// memo acquires (hits + misses) must equal the evalstore split.
		if mh := snap.Counter("memo.hits"); mh != hitsMem+hitsDisk {
			t.Fatalf("%s: memo.hits %d != hits_mem %d + hits_disk %d", tag, mh, hitsMem, hitsDisk)
		}
		if mm := snap.Counter("memo.misses"); mm != misses {
			t.Fatalf("%s: memo.misses %d != evalstore.misses %d", tag, mm, misses)
		}
		if trained := snap.Counter("evals.trained"); trained != misses {
			t.Fatalf("%s: evals.trained %d != evalstore.misses %d", tag, trained, misses)
		}
		switch tag {
		case "cold":
			if lookups == 0 {
				t.Fatal("cold: no evalstore lookups recorded")
			}
			if hitsDisk != 0 {
				t.Fatalf("cold: unexpected disk hits: %d", hitsDisk)
			}
			if skipped != 0 {
				t.Fatalf("cold: %d scenarios skipped against an empty store", skipped)
			}
		case "warm":
			// Store-aware scheduling replays every completed scenario straight
			// from the durable record cache: nothing enters the strategy
			// scheduler, so nothing trains and nothing even looks up.
			if skipped != int64(cfg.Scenarios) {
				t.Fatalf("warm: skipped_durable = %d, want %d", skipped, cfg.Scenarios)
			}
			if trained := snap.Counter("evals.trained"); trained != 0 {
				t.Fatalf("warm: %d evals trained, want 0", trained)
			}
			if lookups != 0 {
				t.Fatalf("warm: %d evalstore lookups, want 0 (scenarios replayed whole)", lookups)
			}
		}
	}
}
