package core

import (
	"context"
	"errors"
	"testing"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// benchData builds a dataset with 2 informative, 1 bias-leaking, and 3 noise
// features; the sensitive group has a lower positive base rate so equal
// opportunity is non-trivial when the biased feature is used.
func benchData(n int, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	p := 6
	x := linalg.NewMatrix(n, p)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Bool(0.4) {
			s[i] = 1
		}
		signal := rng.Norm()
		score := signal - 0.8*float64(s[i])
		if score > -0.1 {
			y[i] = 1
		}
		x.Set(i, 0, clamp01(0.5+0.25*signal))
		x.Set(i, 1, clamp01(0.5+0.2*signal+0.1*rng.Norm()))
		x.Set(i, 2, float64(s[i])) // biased feature
		for j := 3; j < p; j++ {
			x.Set(i, j, rng.Float64())
		}
	}
	return &dataset.Dataset{Name: "bench", X: x, Y: y, Sensitive: s,
		FeatureNames: []string{"sig0", "sig1", "bias", "n0", "n1", "n2"}}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func easyConstraints() constraint.Set {
	return constraint.Set{MinF1: 0.6, MaxSearchCost: 1e6, MaxFeatureFrac: 1}
}

func mustScenario(t *testing.T, cs constraint.Set, kind model.Kind, mode Mode) *Scenario {
	t.Helper()
	scn, err := NewScenario(benchData(400, 1), kind, cs, false, mode, 7)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func TestScenarioValidate(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	if err := scn.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *scn
	bad.ModelKind = "bogus"
	if bad.Validate() == nil {
		t.Fatal("bogus model kind accepted")
	}
	bad = *scn
	bad.Split = nil
	if bad.Validate() == nil {
		t.Fatal("nil split accepted")
	}
}

func TestSpecsGrid(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindDT, ModeSatisfy)
	if got := len(scn.specs()); got != 1 {
		t.Fatalf("no-HPO specs %d", got)
	}
	scn.HPO = true
	if got := len(scn.specs()); got != 7 {
		t.Fatalf("HPO DT specs %d, want 7", got)
	}
}

func TestEvaluatorFindsEasySolution(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	ev, err := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mask := []bool{true, true, false, false, false, false}
	v, stop, err := ev.Evaluate(mask)
	if err != nil {
		t.Fatal(err)
	}
	if !stop {
		t.Fatalf("signal features should satisfy MinF1 0.6 (objective %v)", v)
	}
	sol := ev.Solution()
	if sol == nil || !sol.TestEvaluated {
		t.Fatal("solution not recorded with test confirmation")
	}
	if sol.Val.F1 < 0.6 || sol.Test.F1 < 0.6 {
		t.Fatalf("solution F1 val %v test %v below threshold", sol.Val.F1, sol.Test.F1)
	}
	if got := sol.Features(); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("solution features %v", got)
	}
}

func TestEvaluatorPrunesFeatureCapWithoutTraining(t *testing.T) {
	cs := easyConstraints()
	cs.MaxFeatureFrac = 0.34 // at most 2 of 6 features
	scn := mustScenario(t, cs, model.KindLR, ModeSatisfy)
	ev, err := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	mask := []bool{true, true, true, true, false, false}
	v, stop, err := ev.Evaluate(mask)
	if err != nil || stop {
		t.Fatalf("pruned mask: v=%v stop=%v err=%v", v, stop, err)
	}
	if v < pruneBase {
		t.Fatalf("cap-violating mask value %v below prune sentinel", v)
	}
	if ev.Evaluations() != 0 {
		t.Fatal("pruning must not train")
	}
	if ev.Meter().Spent() != 0 {
		t.Fatal("pruning must not charge the budget")
	}
}

func TestEvaluatorEmptyMaskPruned(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	v, stop, err := ev.Evaluate(make([]bool, 6))
	if err != nil || stop || v < pruneBase {
		t.Fatalf("empty mask: v=%v stop=%v err=%v", v, stop, err)
	}
}

func TestEvaluatorCachesRepeatEvaluations(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeMaximizeUtility)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	mask := []bool{true, false, false, true, false, false}
	v1, _, err := ev.Evaluate(mask)
	if err != nil {
		t.Fatal(err)
	}
	spent := ev.Meter().Spent()
	v2, _, err := ev.Evaluate(mask)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatal("cached value differs")
	}
	if ev.Meter().Spent() != spent {
		t.Fatal("cache hit charged the budget")
	}
	if ev.Evaluations() != 1 {
		t.Fatalf("evaluations %d, want 1", ev.Evaluations())
	}
}

func TestEvaluatorBudgetExhaustion(t *testing.T) {
	scn := mustScenario(t, constraint.Set{MinF1: 0.99, MaxSearchCost: 1e-9, MaxFeatureFrac: 1},
		model.KindLR, ModeSatisfy)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e-9), 1, 0)
	mask := []bool{true, false, false, false, false, false}
	if _, _, err := ev.Evaluate(mask); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("expected exhaustion, got %v", err)
	}
	// Subsequent calls fail immediately.
	if _, _, err := ev.Evaluate(mask); !errors.Is(err, budget.ErrExhausted) {
		t.Fatal("exhausted evaluator kept evaluating")
	}
}

func TestEvaluatorMaxEvalsGuard(t *testing.T) {
	scn := mustScenario(t, constraint.Set{MinF1: 0.999, MaxSearchCost: 1e9, MaxFeatureFrac: 1},
		model.KindLR, ModeSatisfy)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e9), 1, 2)
	masks := [][]bool{
		{true, false, false, false, false, false},
		{false, true, false, false, false, false},
		{false, false, true, false, false, false},
	}
	for i, m := range masks {
		_, _, err := ev.Evaluate(m)
		if i < 2 && err != nil {
			t.Fatalf("eval %d: %v", i, err)
		}
		if i == 2 && !errors.Is(err, budget.ErrExhausted) {
			t.Fatalf("maxEvals guard missing: %v", err)
		}
	}
}

func TestUtilityModeKeepsSearching(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeMaximizeUtility)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	weak := []bool{true, false, false, false, false, false}
	strong := []bool{true, true, false, false, false, false}
	_, stop, err := ev.Evaluate(weak)
	if err != nil {
		t.Fatal(err)
	}
	if stop {
		t.Fatal("utility mode must not stop at the first satisfying subset")
	}
	firstSol := ev.Solution()
	_, _, err = ev.Evaluate(strong)
	if err != nil {
		t.Fatal(err)
	}
	if firstSol != nil && ev.Solution() != nil &&
		ev.Solution().Test.F1 < firstSol.Test.F1 {
		t.Fatal("utility mode replaced the solution with a worse one")
	}
}

func TestMultiObjectiveComponents(t *testing.T) {
	cs := constraint.Set{MinF1: 0.99, MaxSearchCost: 1e6, MaxFeatureFrac: 0.5, MinEO: 0.99}
	scn := mustScenario(t, cs, model.KindLR, ModeSatisfy)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	if got := ev.NumObjectives(); got != 3 {
		t.Fatalf("objectives %d, want 3 (F1, cap, EO)", got)
	}
	multi, _, err := ev.EvaluateMulti([]bool{false, false, false, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != 3 {
		t.Fatalf("multi vector %v", multi)
	}
	// Noise-only subset: the F1 component must be violated.
	if multi[0] <= 0 {
		t.Fatalf("F1 objective %v should be positive for a noise feature", multi[0])
	}
	for _, v := range multi {
		if v < 0 {
			t.Fatalf("negative objective %v", v)
		}
	}
}

func TestPrivacyScenarioUsesDPModels(t *testing.T) {
	cs := easyConstraints()
	cs.PrivacyEps = 0.05 // brutal noise
	cs.MinF1 = 0.95
	scn := mustScenario(t, cs, model.KindLR, ModeSatisfy)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	mask := []bool{true, true, false, false, false, false}
	_, stop, err := ev.Evaluate(mask)
	if err != nil {
		t.Fatal(err)
	}
	// With eps=0.05 the model is noise; a 0.95 F1 constraint should fail.
	if stop {
		t.Fatal("DP-noised model unexpectedly satisfied a 0.95 F1 constraint")
	}
	// The same scenario without privacy succeeds.
	cs.PrivacyEps = 0
	scn2 := mustScenario(t, cs, model.KindLR, ModeSatisfy)
	ev2, _ := NewEvaluator(scn2, budget.NewSim(1e6), 1, 0)
	_, stop2, err := ev2.Evaluate(mask)
	if err != nil {
		t.Fatal(err)
	}
	if !stop2 {
		t.Skip("non-private model did not reach 0.95 F1 on this draw; privacy contrast not assessable")
	}
}

func TestAllStrategiesConstructAndRun(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
			res, err := RunStrategy(context.Background(), s, scn, nil, nil, 3, 150)
			if err != nil {
				t.Fatal(err)
			}
			if res.Strategy != s.Name() {
				t.Fatalf("result strategy %q", res.Strategy)
			}
			if !res.Satisfied {
				t.Fatalf("%s failed an easy scenario (best distance %v)", s.Name(), res.BestValDistance)
			}
			if len(res.Features) == 0 {
				t.Fatal("satisfied without features")
			}
			if res.CostAtSolution <= 0 || res.CostAtSolution > res.TotalCost {
				t.Fatalf("cost accounting wrong: at=%v total=%v", res.CostAtSolution, res.TotalCost)
			}
		})
	}
}

func TestOriginalFeaturesBaseline(t *testing.T) {
	s, err := New(OriginalFeaturesName)
	if err != nil {
		t.Fatal(err)
	}
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	res, err := RunStrategy(context.Background(), s, scn, nil, nil, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 1 {
		t.Fatalf("baseline evaluated %d subsets, want 1", res.Evaluations)
	}
	if res.Satisfied && len(res.Features) != 6 {
		t.Fatalf("baseline selected %v", res.Features)
	}
}

func TestUnknownStrategyRejected(t *testing.T) {
	if _, err := New("Magic"); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestRunStrategyFailureReportsDistances(t *testing.T) {
	cs := constraint.Set{MinF1: 0.999, MaxSearchCost: 500, MaxFeatureFrac: 1}
	scn := mustScenario(t, cs, model.KindNB, ModeSatisfy)
	s, _ := New("SFS(NR)")
	res, err := RunStrategy(context.Background(), s, scn, nil, nil, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Skip("scenario unexpectedly satisfiable")
	}
	if res.BestValDistance <= 0 {
		t.Fatal("failed run must report a positive validation distance")
	}
	if res.BestTestDistance <= 0 {
		t.Fatal("failed run must report a positive test distance")
	}
}

func TestRunStrategyDeterministic(t *testing.T) {
	cs := easyConstraints()
	cs.MinEO = 0.85
	run := func() RunResult {
		scn := mustScenario(t, cs, model.KindDT, ModeSatisfy)
		s, _ := New("TPE(NR)")
		res, err := RunStrategy(context.Background(), s, scn, nil, nil, 11, 150)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Satisfied != b.Satisfied || a.TotalCost != b.TotalCost || a.Evaluations != b.Evaluations {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestFairnessConstraintPrunesBiasedFeature(t *testing.T) {
	// With a high EO threshold, the solution must avoid relying on the
	// biased feature alone; SFFS should find a compliant subset.
	cs := constraint.Set{MinF1: 0.55, MaxSearchCost: 1e6, MaxFeatureFrac: 1, MinEO: 0.9}
	scn := mustScenario(t, cs, model.KindLR, ModeSatisfy)
	s, _ := New("SFFS(NR)")
	res, err := RunStrategy(context.Background(), s, scn, nil, nil, 13, 250)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Skipf("EO scenario not satisfied (best distance %v)", res.BestValDistance)
	}
	if res.TestScores.EO < 0.9 {
		t.Fatalf("solution EO %v below the declared threshold", res.TestScores.EO)
	}
}

func TestSafetyConstraintEvaluatesAttack(t *testing.T) {
	cs := constraint.Set{MinF1: 0.5, MaxSearchCost: 1e6, MaxFeatureFrac: 1, MinSafety: 0.05}
	scn := mustScenario(t, cs, model.KindDT, ModeSatisfy)
	scn.AttackInstances = 4
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	mask := []bool{true, true, false, false, false, false}
	if _, _, err := ev.Evaluate(mask); err != nil {
		t.Fatal(err)
	}
	if ev.Best() == nil {
		t.Fatal("no candidate recorded")
	}
	s := ev.Best().Val.Safety
	if s < 0 || s > 1 || s == 1 && ev.Best().Val.F1 > 0.9 {
		// Safety of exactly 1 with a strong model is suspicious but
		// possible; only range errors are fatal.
		if s < 0 || s > 1 {
			t.Fatalf("safety %v out of range", s)
		}
	}
}

func TestEvaluateOnTestIdempotent(t *testing.T) {
	scn := mustScenario(t, constraint.Set{MinF1: 0.99, MaxSearchCost: 1e6, MaxFeatureFrac: 1},
		model.KindLR, ModeSatisfy)
	ev, _ := NewEvaluator(scn, budget.NewSim(1e6), 1, 0)
	if _, _, err := ev.Evaluate([]bool{true, true, false, false, false, false}); err != nil {
		t.Fatal(err)
	}
	best := ev.Best()
	spent := ev.Meter().Spent()
	s1, err := ev.EvaluateOnTest(best)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ev.EvaluateOnTest(best)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Fatal("EvaluateOnTest not idempotent")
	}
	if ev.Meter().Spent() != spent {
		t.Fatal("post-hoc test evaluation charged the budget")
	}
}
