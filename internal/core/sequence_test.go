package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/model"
)

func TestRunSequenceFindsSolution(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	a, _ := New("TPE(Variance)")
	b, _ := New("SFFS(NR)")
	res, err := RunSequence([]Strategy{a, b}, scn, 3, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Fatalf("sequence failed an easy scenario (distance %v)", res.BestValDistance)
	}
	if res.Strategy != "TPE(Variance)" && res.Strategy != "SFFS(NR)" {
		t.Fatalf("winner %q not a stage", res.Strategy)
	}
}

func TestRunSequenceSwitchesAfterStageBudget(t *testing.T) {
	// A hard threshold the first (cheap-ranking) stage cannot satisfy
	// quickly; the sequence must hand over and still report total cost
	// within the declared budget.
	cs := constraint.Set{MinF1: 0.95, MaxSearchCost: 50, MaxFeatureFrac: 1}
	scn := mustScenario(t, cs, model.KindNB, ModeSatisfy)
	a, _ := New("TPE(Variance)")
	b, _ := New("SFS(NR)")
	res, err := RunSequence([]Strategy{a, b}, scn, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost > cs.MaxSearchCost*1.2 {
		t.Fatalf("sequence overspent: %v of %v", res.TotalCost, cs.MaxSearchCost)
	}
	if res.Evaluations == 0 {
		t.Fatal("sequence never evaluated")
	}
}

func TestRunSequenceWarmStartSharesCache(t *testing.T) {
	// Running the same strategy twice in sequence must not re-train: the
	// second stage re-proposes cached subsets for free, so the evaluation
	// count equals a single run's.
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeMaximizeUtility)
	a, _ := New("TPE(Variance)")
	b, _ := New("TPE(Variance)")
	seq, err := RunSequence([]Strategy{a, b}, scn, 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	scn2 := mustScenario(t, easyConstraints(), model.KindLR, ModeMaximizeUtility)
	single, err := RunStrategy(context.Background(), a, scn2, nil, nil, 7, 40)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Evaluations > single.Evaluations+5 {
		t.Fatalf("warm start ineffective: %d vs %d evaluations",
			seq.Evaluations, single.Evaluations)
	}
}

func TestRunSequenceEmptyRejected(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	if _, err := RunSequence(nil, scn, 1, 10); err == nil {
		t.Fatal("empty sequence accepted")
	}
}

func TestRunSequenceFailureReporting(t *testing.T) {
	cs := constraint.Set{MinF1: 0.999, MaxSearchCost: 200, MaxFeatureFrac: 1}
	scn := mustScenario(t, cs, model.KindNB, ModeSatisfy)
	a, _ := New("TPE(Variance)")
	b, _ := New("SFS(NR)")
	res, err := RunSequence([]Strategy{a, b}, scn, 9, 60)
	if err != nil {
		t.Fatal(err)
	}
	if res.Satisfied {
		t.Skip("scenario unexpectedly satisfiable")
	}
	if res.BestValDistance <= 0 {
		t.Fatal("failed sequence must report a distance")
	}
	if res.Strategy == "" {
		t.Fatal("failed sequence must name itself")
	}
}

// TestRunSequenceIsolatesStagePanic pins per-stage panic isolation: a
// panicking stage ends the sequence with an error wrapping the panicked
// *StrategyError instead of crashing the process.
func TestRunSequenceIsolatesStagePanic(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	a := &scriptedStrategy{inner: mustStrategy(t, "TPE(Variance)"), failFirst: 1,
		fault: func() error { return nil }}
	_, err := RunSequence([]Strategy{a, mustStrategy(t, "SFFS(NR)")}, scn, 3, 200)
	var se *StrategyError
	if !errors.As(err, &se) || !se.Panicked() {
		t.Fatalf("want an error wrapping a panicked *StrategyError, got %v", err)
	}
	if !strings.HasPrefix(err.Error(), "core: sequence stage TPE(Variance)") {
		t.Fatalf("error does not name the failed stage: %v", err)
	}
}
