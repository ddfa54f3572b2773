package search

import (
	"errors"
	"testing"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// hammingObjective scores a mask by its Hamming distance to a target mask
// and signals stop when the target is hit exactly. It optionally enforces an
// evaluation budget and records every evaluation.
type hammingObjective struct {
	target    []bool
	maxEvals  int // 0 = unlimited
	evals     int
	bestValue float64
	bestMask  []bool
	history   [][]bool
	stopOnHit bool
}

func newHamming(target []bool, stopOnHit bool) *hammingObjective {
	return &hammingObjective{target: target, bestValue: 1e18, stopOnHit: stopOnHit}
}

func (h *hammingObjective) NumFeatures() int { return len(h.target) }

func (h *hammingObjective) Evaluate(mask []bool) (float64, bool, error) {
	if h.maxEvals > 0 && h.evals >= h.maxEvals {
		return 0, false, budget.ErrExhausted
	}
	h.evals++
	h.history = append(h.history, append([]bool(nil), mask...))
	v := 0.0
	for j := range mask {
		if mask[j] != h.target[j] {
			v++
		}
	}
	if v < h.bestValue {
		h.bestValue = v
		h.bestMask = append([]bool(nil), mask...)
	}
	return v, h.stopOnHit && v == 0, nil
}

// multiHamming adds a second objective (mask size) for NSGA-II.
type multiHamming struct {
	hammingObjective
}

func (m *multiHamming) NumObjectives() int { return 2 }

func (m *multiHamming) EvaluateMulti(mask []bool) ([]float64, bool, error) {
	v, stop, err := m.Evaluate(mask)
	if err != nil {
		return nil, false, err
	}
	size := 0.0
	for _, b := range mask {
		if b {
			size++
		}
	}
	return []float64{v, size}, stop, nil
}

func mask(bits ...int) func(p int) []bool {
	return func(p int) []bool {
		m := make([]bool, p)
		for _, b := range bits {
			m[b] = true
		}
		return m
	}
}

func TestExhaustiveEnumeratesAscendingSizes(t *testing.T) {
	h := newHamming(mask(0, 2)(4), false)
	if err := Exhaustive(h); err != nil {
		t.Fatal(err)
	}
	if h.evals != 15 { // 2⁴−1 non-empty subsets
		t.Fatalf("evaluations %d, want 15", h.evals)
	}
	// First four evaluations are the singletons, in index order.
	for i := 0; i < 4; i++ {
		size := 0
		for _, b := range h.history[i] {
			if b {
				size++
			}
		}
		if size != 1 || !h.history[i][i] {
			t.Fatalf("evaluation %d was not singleton %d: %v", i, i, h.history[i])
		}
	}
	if h.bestValue != 0 {
		t.Fatal("exhaustive search missed the target")
	}
}

func TestExhaustiveStopsOnHit(t *testing.T) {
	h := newHamming(mask(1)(4), true)
	if err := Exhaustive(h); err != nil {
		t.Fatal(err)
	}
	if h.evals != 2 { // {0}, then {1} hits
		t.Fatalf("evaluations %d, want 2", h.evals)
	}
}

func TestExhaustiveRespectsBudget(t *testing.T) {
	h := newHamming(mask(0, 1, 2)(10), false)
	h.maxEvals = 7
	if err := Exhaustive(h); err != nil {
		t.Fatal(err)
	}
	if h.evals != 7 {
		t.Fatalf("evaluations %d, want 7 (budget)", h.evals)
	}
}

func TestSequentialForwardFindsTarget(t *testing.T) {
	h := newHamming(mask(1, 3)(6), true)
	if err := SequentialForward(h, false); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("SFS best distance %v", h.bestValue)
	}
	// Greedy on Hamming distance: the target is hit within two rounds,
	// p + (p−1) evaluations at most.
	if h.evals > 11 {
		t.Fatalf("SFS used %d evaluations", h.evals)
	}
}

func TestSequentialForwardFloatingFindsTarget(t *testing.T) {
	h := newHamming(mask(0, 4)(6), true)
	if err := SequentialForward(h, true); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("SFFS best distance %v", h.bestValue)
	}
}

func TestSequentialBackwardFindsTarget(t *testing.T) {
	h := newHamming(mask(0, 1, 2, 3, 4)(6), true) // remove one feature
	if err := SequentialBackward(h, false); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("SBS best distance %v", h.bestValue)
	}
}

func TestSequentialBackwardFloating(t *testing.T) {
	h := newHamming(mask(0, 1, 2)(5), true)
	if err := SequentialBackward(h, true); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("SBFS best distance %v", h.bestValue)
	}
}

func TestSequentialDriversRespectBudget(t *testing.T) {
	for name, run := range map[string]func(Objective) error{
		"SFS":  func(o Objective) error { return SequentialForward(o, false) },
		"SFFS": func(o Objective) error { return SequentialForward(o, true) },
		"SBS":  func(o Objective) error { return SequentialBackward(o, false) },
		"SBFS": func(o Objective) error { return SequentialBackward(o, true) },
	} {
		h := newHamming(mask(2)(8), false)
		h.maxEvals = 5
		if err := run(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if h.evals != 5 {
			t.Fatalf("%s evaluations %d, want 5", name, h.evals)
		}
	}
}

func TestRFERemovesLowestRankedFirst(t *testing.T) {
	h := newHamming(mask(3)(4), true)
	// Static ranking: feature 3 most important.
	rank := func(m []bool) ([]float64, error) {
		return []float64{0.1, 0.2, 0.3, 0.9}, nil
	}
	if err := RFE(h, rank); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("RFE best distance %v", h.bestValue)
	}
	// Eliminations: full, -0, -1, -2 → 4 evaluations, last is {3}.
	if h.evals != 4 {
		t.Fatalf("RFE evaluations %d, want 4", h.evals)
	}
}

func TestRFEStopsOnRankBudget(t *testing.T) {
	h := newHamming(mask(0)(4), false)
	calls := 0
	rank := func(m []bool) ([]float64, error) {
		calls++
		if calls > 1 {
			return nil, budget.ErrExhausted
		}
		return []float64{0.5, 0.1, 0.2, 0.3}, nil
	}
	if err := RFE(h, rank); err != nil {
		t.Fatal(err)
	}
}

func TestRFEPropagatesRealErrors(t *testing.T) {
	h := newHamming(mask(0)(4), false)
	boom := errors.New("boom")
	rank := func(m []bool) ([]float64, error) { return nil, boom }
	if err := RFE(h, rank); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestTPETopKFindsOptimalCut(t *testing.T) {
	// Target = top-3 of the ranking → objective minimized at k=3.
	target := mask(5, 2, 7)(10)
	h := newHamming(target, true)
	ranking := []int{5, 2, 7, 0, 1, 3, 4, 6, 8, 9}
	if err := TPETopK(h, ranking, TPEConfig{}, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("TPE(top-k) best distance %v", h.bestValue)
	}
}

func TestTPETopKCoversAllCutsEventually(t *testing.T) {
	h := newHamming(mask(0, 1, 2, 3, 4)(5), false)
	ranking := []int{0, 1, 2, 3, 4}
	if err := TPETopK(h, ranking, TPEConfig{}, xrand.New(2)); err != nil {
		t.Fatal(err)
	}
	// Only 5 distinct cuts exist; the driver must terminate after covering
	// them (with some duplicate proposals allowed).
	if h.evals > 25 {
		t.Fatalf("TPE(top-k) wasted %d evaluations on 5 cuts", h.evals)
	}
	if h.bestValue != 0 {
		t.Fatal("k=5 never evaluated")
	}
}

func TestTPEBinaryFindsTarget(t *testing.T) {
	h := newHamming(mask(1, 4)(6), true)
	h.maxEvals = 3000
	if err := TPEBinary(h, xrand.New(3)); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("TPE(NR) best distance %v", h.bestValue)
	}
}

func TestTPEBinaryImprovesOverRandom(t *testing.T) {
	// After warmup, guided proposals should reach the target much faster
	// than 2⁶−1 exhaustive tries on average.
	totalEvals := 0
	const runs = 10
	for r := 0; r < runs; r++ {
		h := newHamming(mask(0, 3, 5)(10), true)
		h.maxEvals = 5000
		if err := TPEBinary(h, xrand.New(uint64(10+r))); err != nil {
			t.Fatal(err)
		}
		if h.bestValue != 0 {
			t.Fatalf("run %d failed to find target", r)
		}
		totalEvals += h.evals
	}
	if avg := totalEvals / runs; avg > 400 {
		t.Fatalf("TPE(NR) averaged %d evaluations for a 10-bit target", avg)
	}
}

func TestSimulatedAnnealingFindsTarget(t *testing.T) {
	h := newHamming(mask(2, 5)(6), true)
	if err := SimulatedAnnealing(h, xrand.New(4)); err != nil {
		t.Fatal(err)
	}
	if h.bestValue != 0 {
		t.Fatalf("SA best distance %v", h.bestValue)
	}
}

func TestSimulatedAnnealingNeverEmptyMask(t *testing.T) {
	h := newHamming(mask(0)(3), false)
	h.maxEvals = 500
	if err := SimulatedAnnealing(h, xrand.New(5)); err != nil {
		t.Fatal(err)
	}
	for _, m := range h.history {
		if countMask(m) == 0 {
			t.Fatal("empty mask evaluated")
		}
	}
}

func TestNSGA2FindsParetoTarget(t *testing.T) {
	m := &multiHamming{*newHamming(mask(1, 3)(8), true)}
	m.maxEvals = 30 + 50*30 // the initial population and 50 generations
	if err := NSGA2(m, xrand.New(6)); err != nil {
		t.Fatal(err)
	}
	if m.bestValue != 0 {
		t.Fatalf("NSGA-II best distance %v", m.bestValue)
	}
}

func TestNSGA2RespectsBudget(t *testing.T) {
	m := &multiHamming{*newHamming(mask(0)(8), false)}
	m.maxEvals = 45
	if err := NSGA2(m, xrand.New(7)); err != nil {
		t.Fatal(err)
	}
	if m.evals != 45 {
		t.Fatalf("evaluations %d, want 45", m.evals)
	}
}

func TestNSGA2Deterministic(t *testing.T) {
	run := func() [][]bool {
		m := &multiHamming{*newHamming(mask(1, 2)(6), false)}
		m.maxEvals = 200
		if err := NSGA2(m, xrand.New(8)); err != nil {
			t.Fatal(err)
		}
		return m.history
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("run lengths differ")
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("same-seed NSGA-II runs diverge")
			}
		}
	}
}

func TestDominates(t *testing.T) {
	if !dominates([]float64{1, 2}, []float64{2, 2}) {
		t.Fatal("strict improvement in one objective should dominate")
	}
	if dominates([]float64{1, 3}, []float64{2, 2}) {
		t.Fatal("trade-off must not dominate")
	}
	if dominates([]float64{2, 2}, []float64{2, 2}) {
		t.Fatal("equal vectors must not dominate")
	}
}

func TestCrowdingBoundariesInfinite(t *testing.T) {
	pop := []*individual{
		{objs: []float64{0, 5}},
		{objs: []float64{1, 3}},
		{objs: []float64{2, 1}},
	}
	crowding(pop, []int{0, 1, 2})
	if pop[0].crowding != pop[2].crowding {
		t.Fatal("boundary individuals should both be infinite")
	}
	if !(pop[1].crowding < pop[0].crowding) {
		t.Fatal("interior crowding must be finite")
	}
}

func TestDoneHelper(t *testing.T) {
	if stop, err := done(false, budget.ErrExhausted); !stop || err != nil {
		t.Fatal("budget exhaustion must stop without error")
	}
	boom := errors.New("boom")
	if stop, err := done(false, boom); !stop || !errors.Is(err, boom) {
		t.Fatal("real error must stop and propagate")
	}
	if stop, err := done(true, nil); !stop || err != nil {
		t.Fatal("stop signal must stop")
	}
	if stop, err := done(false, nil); stop || err != nil {
		t.Fatal("no signal must continue")
	}
}
