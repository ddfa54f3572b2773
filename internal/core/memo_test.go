package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/synth"
)

// memoScenario builds a small scenario whose constraint set exercises the
// randomized evaluation paths (DP training noise, safety attacks) — the ones
// that would diverge under sharing if evaluations were not order-independent.
func memoScenario(t *testing.T, cs constraint.Set) *Scenario {
	t.Helper()
	p, err := synth.ByName("COMPAS")
	if err != nil {
		t.Fatal(err)
	}
	d, err := synth.GenerateDataset(&p, 7)
	if err != nil {
		t.Fatal(err)
	}
	scn, err := NewScenario(d, model.KindLR, cs, false, ModeSatisfy, 7)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func memoConstraintSets() map[string]constraint.Set {
	return map[string]constraint.Set{
		"plain": {MinF1: 0.55, MaxSearchCost: 800, MaxFeatureFrac: 1},
		"privacy+safety": {
			MinF1: 0.4, MaxSearchCost: 800, MaxFeatureFrac: 1,
			PrivacyEps: 2, MinSafety: 0.1,
		},
	}
}

// TestSharedMemoMatchesPrivateRuns is the core sharing guarantee: every
// strategy's RunResult is identical whether its evaluator trains privately or
// is served by a memo warmed by all the other strategies.
func TestSharedMemoMatchesPrivateRuns(t *testing.T) {
	strategies := []string{"SFS(NR)", "SFFS(NR)", "TPE(NR)", "RFE(Model)", OriginalFeaturesName}
	for label, cs := range memoConstraintSets() {
		t.Run(label, func(t *testing.T) {
			scn := memoScenario(t, cs)
			const seed = 11

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

			memo := NewSharedMemo()
			for _, name := range strategies {
				s, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunStrategy(context.Background(), s, scn, nil, memo, seed, 30)
				if err != nil {
					t.Fatalf("%s shared: %v", name, err)
				}
				if !reflect.DeepEqual(res, private[name]) {
					t.Errorf("%s diverged under sharing:\nprivate %+v\nshared  %+v",
						name, private[name], res)
				}
			}
			st := memo.Stats()
			if st.Trained == 0 {
				t.Fatal("memo never trained a subset")
			}
			if st.Hits() == 0 {
				t.Fatal("sharing never hit: the forward strategies evaluate overlapping prefixes")
			}
			if st.InFlight != 0 {
				t.Fatalf("%d slots still in flight at quiesce", st.InFlight)
			}
		})
	}
}

// TestSharedMemoConcurrentRuns exercises the singleflight path: all
// strategies run concurrently against one memo, and each result must still
// match its private run (run with -race).
func TestSharedMemoConcurrentRuns(t *testing.T) {
	strategies := []string{"SFS(NR)", "SFFS(NR)", "TPE(NR)", "TPE(Variance)"}
	scn := memoScenario(t, memoConstraintSets()["privacy+safety"])
	const seed = 23

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

	memo := NewSharedMemo()
	shared := make([]RunResult, len(strategies))
	errs := make([]error, len(strategies))
	var wg sync.WaitGroup
	for i, name := range strategies {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			s, err := New(name)
			if err != nil {
				errs[i] = err
				return
			}
			shared[i], errs[i] = RunStrategy(context.Background(), s, scn, nil, memo, seed, 30)
		}(i, name)
	}
	wg.Wait()
	for i, name := range strategies {
		if errs[i] != nil {
			t.Fatalf("%s shared: %v", name, errs[i])
		}
		if !reflect.DeepEqual(shared[i], private[name]) {
			t.Errorf("%s diverged under concurrent sharing:\nprivate %+v\nshared  %+v",
				name, private[name], shared[i])
		}
	}
}

// TestSharedMemoSeedIsolation verifies that runs under different seeds never
// share entries: a transient retry's perturbed seed must not be served
// results drawn under the original seed.
func TestSharedMemoSeedIsolation(t *testing.T) {
	scn := memoScenario(t, memoConstraintSets()["plain"])
	memo := NewSharedMemo()
	s, err := New("SFS(NR)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunStrategy(context.Background(), s, scn, nil, memo, 11, 20); err != nil {
		t.Fatal(err)
	}
	before := memo.Stats()
	if _, err := RunStrategy(context.Background(), s, scn, nil, memo, PerturbSeed(11, 1), 20); err != nil {
		t.Fatal(err)
	}
	after := memo.Stats()
	if h := after.Hits(); h != 0 {
		t.Fatalf("different seeds shared %d entries", h)
	}
	if after.Trained <= before.Trained {
		t.Fatal("second seed trained nothing new")
	}
}
