package faultinject

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// testData builds a small separable dataset.
func testData(n int, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	p := 5
	x := linalg.NewMatrix(n, p)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		if rng.Bool(0.4) {
			s[i] = 1
		}
		signal := rng.Norm()
		if signal > 0 {
			y[i] = 1
		}
		v := 0.5 + 0.25*signal
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		x.Set(i, 0, v)
		for j := 1; j < p; j++ {
			x.Set(i, j, rng.Float64())
		}
	}
	return &dataset.Dataset{Name: "fi", X: x, Y: y, Sensitive: s,
		FeatureNames: []string{"sig", "n0", "n1", "n2", "n3"}}
}

func testScenario(t *testing.T) *core.Scenario {
	t.Helper()
	cs := constraint.Set{MinF1: 0.6, MaxSearchCost: 1e6, MaxFeatureFrac: 1}
	scn, err := core.NewScenario(testData(300, 3), model.KindLR, cs, false, core.ModeSatisfy, 7)
	if err != nil {
		t.Fatal(err)
	}
	return scn
}

func mustStrategy(t *testing.T, name string) core.Strategy {
	t.Helper()
	s, err := core.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMeterFiresAtScriptedIndices(t *testing.T) {
	inner := budget.NewSim(100)
	m := NewMeter(inner, map[int]Fault{
		2: {Kind: Error},
		4: {Kind: Exhaust},
	})
	for i := 0; i < 2; i++ {
		if err := m.Charge(1); err != nil {
			t.Fatalf("charge %d: %v", i, err)
		}
	}
	if err := m.Charge(1); err == nil || errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("charge 2 must fail with the scripted error, got %v", err)
	}
	if err := m.Charge(1); err != nil {
		t.Fatalf("charge 3: %v", err)
	}
	if err := m.Charge(1); !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("charge 4 must exhaust, got %v", err)
	}
	// Error and exhaust faults short-circuit before the inner charge: the
	// inner meter saw only charges 0, 1, and 3.
	if inner.Spent() != 3 || m.Calls() != 5 {
		t.Fatalf("spent %v calls %d", inner.Spent(), m.Calls())
	}
}

func TestMeterNaNCostHitsTheGuard(t *testing.T) {
	m := NewMeter(budget.NewSim(100), map[int]Fault{0: {Kind: NaNCost}})
	err := m.Charge(1)
	if err == nil || errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("NaN cost must be rejected by the meter guard, got %v", err)
	}
	// Accounting stays clean: the rejected charge didn't corrupt spent.
	if m.Spent() != 0 || m.Exhausted() {
		t.Fatalf("NaN charge corrupted accounting: spent %v", m.Spent())
	}
	if err := m.Charge(1); err != nil {
		t.Fatalf("meter unusable after NaN injection: %v", err)
	}
}

func TestMeterDelay(t *testing.T) {
	m := NewMeter(budget.NewSim(100), map[int]Fault{0: {Kind: Delay, Sleep: 20 * time.Millisecond}})
	start := time.Now()
	if err := m.Charge(1); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("delay fault did not stall the charge")
	}
}

func TestScriptedPanicIsIsolatedByCore(t *testing.T) {
	scn := testScenario(t)
	s := &Strategy{Inner: mustStrategy(t, "SFS(NR)"), FailFirst: 1, Fault: Fault{Kind: Panic}}
	_, err := core.RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	var se *core.StrategyError
	if !errors.As(err, &se) || !se.Panicked() {
		t.Fatalf("scripted panic must surface as a panicked StrategyError, got %v", err)
	}
}

func TestScriptedTransientIsRetried(t *testing.T) {
	scn := testScenario(t)
	s := &Strategy{Inner: mustStrategy(t, "SFS(NR)"), FailFirst: 2, Fault: Fault{Kind: TransientError}}
	res, err := core.RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	if err != nil {
		t.Fatalf("transient script within retry budget: %v", err)
	}
	if s.Runs() != 3 || !res.Satisfied {
		t.Fatalf("runs %d satisfied %v", s.Runs(), res.Satisfied)
	}
}

func TestMeterFaultMidSearchStopsCleanly(t *testing.T) {
	scn := testScenario(t)
	// Exhaust at the 6th charge: the strategy must treat it as a normal
	// budget stop and report a clean (unsatisfied or satisfied-early) result.
	ev, err := core.NewEvaluator(scn, NewMeter(budget.NewSim(1e6), map[int]Fault{5: {Kind: Exhaust}}), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mustStrategy(t, "SFS(NR)").Run(ev, xrand.NewStream(7, 1)); err != nil && !errors.Is(err, budget.ErrExhausted) {
		t.Fatalf("injected exhaustion must read as a budget stop: %v", err)
	}
}

func TestNaNScoreNeverSatisfies(t *testing.T) {
	scn := testScenario(t)
	// Poison every custom-metric call: no candidate may confirm as solution,
	// and the run must finish without corrupting the search state.
	scn.Custom = []core.CustomConstraint{NaNScore("poisoned", nil)}
	res, err := core.RunStrategy(context.Background(), mustStrategy(t, "SFS(NR)"), scn, nil, nil, 7, 30)
	if err != nil {
		t.Fatalf("NaN scores must degrade, not fail: %v", err)
	}
	if res.Satisfied {
		t.Fatal("a NaN custom score confirmed as satisfied")
	}
	if !math.IsInf(res.BestValDistance, 0) && math.IsNaN(res.BestValDistance) {
		t.Fatalf("NaN leaked into the reported distance: %v", res.BestValDistance)
	}

	// Scripted partial poisoning: only evaluation 0 is NaN; the search
	// recovers and satisfies on a later candidate.
	scn2 := testScenario(t)
	scn2.Custom = []core.CustomConstraint{NaNScore("flaky", map[int]bool{0: true})}
	res2, err := core.RunStrategy(context.Background(), mustStrategy(t, "SFS(NR)"), scn2, nil, nil, 7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Satisfied {
		t.Fatal("search must recover from a single poisoned evaluation")
	}
}

func TestDeterministicReplay(t *testing.T) {
	// The same script produces the identical outcome twice.
	run := func() (core.RunResult, error) {
		scn := testScenario(t)
		s := &Strategy{Inner: mustStrategy(t, "SFS(NR)"), FailFirst: 1, Fault: Fault{Kind: TransientError}}
		return core.RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	}
	a, errA := run()
	b, errB := run()
	if (errA == nil) != (errB == nil) {
		t.Fatalf("replay diverged: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay results diverged:\n%+v\n%+v", a, b)
	}
}
