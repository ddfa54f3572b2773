package core

import (
	"context"
	"reflect"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/race"
)

// TestSharedMemoDurableReplayBitIdentical is the durable-tier contract: a
// warm rerun served entirely from disk produces the same RunResult, bit for
// bit, as a private cold run — only the physical training is skipped.
func TestSharedMemoDurableReplayBitIdentical(t *testing.T) {
	strategies := []string{"SFS(NR)", "TPE(NR)", "RFE(Model)"}
	for label, cs := range memoConstraintSets() {
		t.Run(label, func(t *testing.T) {
			scn := memoScenario(t, cs)
			const seed = 11
			dir := t.TempDir()

			private := make(map[string]RunResult, len(strategies))
			for _, name := range strategies {
				s, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunStrategy(context.Background(), s, scn, nil, nil, seed, 30)
				if err != nil {
					t.Fatalf("%s private: %v", name, err)
				}
				private[name] = res
			}

			runAll := func(tag string) (MemoStats, evalstore.Stats) {
				store, err := evalstore.Open(dir, evalstore.Options{})
				if err != nil {
					t.Fatal(err)
				}
				memo := NewSharedMemo()
				memo.AttachDurable(store, scn.ContentHash())
				for _, name := range strategies {
					s, err := New(name)
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunStrategy(context.Background(), s, scn, nil, memo, seed, 30)
					if err != nil {
						t.Fatalf("%s %s: %v", name, tag, err)
					}
					if !reflect.DeepEqual(res, private[name]) {
						t.Errorf("%s diverged on the %s run:\nprivate %+v\ngot     %+v",
							name, tag, private[name], res)
					}
				}
				st := store.Stats()
				if err := store.Close(); err != nil {
					t.Fatal(err)
				}
				return memo.Stats(), st
			}

			cold, coldStore := runAll("cold")
			if cold.Trained == 0 || coldStore.Puts == 0 {
				t.Fatalf("cold run trained nothing into the store: memo %+v store %s", cold, coldStore)
			}
			if cold.HitsDisk != 0 {
				t.Fatalf("cold run hit an empty store: %+v", cold)
			}

			warm, warmStore := runAll("warm")
			if warm.Trained != 0 {
				t.Fatalf("warm run retrained %d subsets, want 0: %+v", warm.Trained, warm)
			}
			if warm.HitsDisk == 0 {
				t.Fatalf("warm run never hit the durable tier: %+v", warm)
			}
			if warmStore.Misses != 0 || warmStore.Puts != 0 {
				t.Fatalf("warm run should be pure disk hits (no misses, no new puts): %s", warmStore)
			}
		})
	}
}

// TestSharedMemoDurableSeedIsolation mirrors the in-memory seed-isolation
// guarantee across processes: entries trained under one seed must never be
// replayed under a perturbed retry seed (the durable key pins the seed).
func TestSharedMemoDurableSeedIsolation(t *testing.T) {
	scn := memoScenario(t, memoConstraintSets()["plain"])
	dir := t.TempDir()
	s, err := New("SFS(NR)")
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range []uint64{11, PerturbSeed(11, 1)} {
		store, err := evalstore.Open(dir, evalstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		memo := NewSharedMemo()
		memo.AttachDurable(store, scn.ContentHash())
		if _, err := RunStrategy(context.Background(), s, scn, nil, memo, seed, 20); err != nil {
			t.Fatal(err)
		}
		st := memo.Stats()
		if st.HitsDisk != 0 {
			t.Fatalf("run %d (seed %d) was served %d entries from a foreign seed", i, seed, st.HitsDisk)
		}
		if st.Trained == 0 {
			t.Fatalf("run %d (seed %d) trained nothing", i, seed)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedMemoDurableScenarioIsolation pins the content-hash half of the
// key: the same masks under a different scenario hash must miss.
func TestSharedMemoDurableScenarioIsolation(t *testing.T) {
	scn := memoScenario(t, memoConstraintSets()["plain"])
	dir := t.TempDir()
	s, err := New("SFS(NR)")
	if err != nil {
		t.Fatal(err)
	}
	for i, hash := range []uint64{scn.ContentHash(), scn.ContentHash() ^ 1} {
		store, err := evalstore.Open(dir, evalstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		memo := NewSharedMemo()
		memo.AttachDurable(store, hash)
		if _, err := RunStrategy(context.Background(), s, scn, nil, memo, 11, 20); err != nil {
			t.Fatal(err)
		}
		if st := memo.Stats(); st.HitsDisk != 0 {
			t.Fatalf("run %d was served %d entries across scenario hashes", i, st.HitsDisk)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableDiskHitAllocCeiling is the tripwire on the disk-hit acquire
// path: installing a durable hit as a committed in-memory entry costs a
// bounded handful of allocations (entry, map slot), nothing proportional to
// the result payload.
func TestDurableDiskHitAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under -race")
	}
	store, err := evalstore.Open(t.TempDir(), evalstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	memo := NewSharedMemo()
	memo.AttachDurable(store, 0xabc)

	const n = 300
	keys := make([]memoKey, n)
	for i := range keys {
		keys[i] = memoKey{
			mask: string([]byte{byte(i), byte(i >> 8)}),
			kind: model.KindLR,
			seed: 7,
		}
		store.Put(memo.storeKey(keys[i]), evalstore.Result{
			Val:       constraint.Scores{F1: 0.5},
			ValCustom: []float64{0.25},
		})
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		k := keys[i]
		i++
		if _, src, _, _ := memo.acquire(k); src != acqDisk {
			t.Fatalf("key %d: src %d, want disk hit", i-1, src)
		}
	})
	const ceiling = 12
	if allocs > ceiling {
		t.Fatalf("disk-hit acquire allocates %v times per call, ceiling %d", allocs, ceiling)
	}
}

// TestScenarioContentHashSensitivity spot-checks that the content hash moves
// with everything it claims to cover — and stays put for equal builds.
func TestScenarioContentHashSensitivity(t *testing.T) {
	base := func() *Scenario { return memoScenario(t, memoConstraintSets()["plain"]) }
	h := base().ContentHash()
	if h != base().ContentHash() {
		t.Fatal("identical scenarios hash differently")
	}
	cs := memoConstraintSets()["plain"]
	cs.MinF1 += 0.01
	if memoScenario(t, cs).ContentHash() == h {
		t.Fatal("constraint change not reflected in the content hash")
	}
	other := memoScenario(t, memoConstraintSets()["plain"])
	other.Custom = append(other.Custom, CustomConstraint{
		Name: "dp", Min: 0.5, Metric: func(MetricInput) float64 { return 1 },
	})
	if other.ContentHash() == h {
		t.Fatal("custom-constraint change not reflected in the content hash")
	}
}
