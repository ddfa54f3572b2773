package core

import (
	"context"
	"testing"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/model"
)

func TestHPOGridChargesPerSpec(t *testing.T) {
	// An HPO evaluation trains the whole grid, so its cost must be a
	// multiple of the no-HPO cost.
	mask := []bool{true, true, false, false, false, false}

	run := func(hpo bool) float64 {
		scn := mustScenario(t, easyConstraints(), model.KindLR, ModeMaximizeUtility)
		scn.HPO = hpo
		meter := budget.NewSim(1e9)
		ev, err := NewEvaluator(scn, meter, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ev.Evaluate(mask); err != nil {
			t.Fatal(err)
		}
		return meter.Spent()
	}
	plain, grid := run(false), run(true)
	// LR grid has 6 points.
	if grid < 5*plain {
		t.Fatalf("HPO cost %v not ~6x the single-train cost %v", grid, plain)
	}
}

func TestHPOPicksBestGridPoint(t *testing.T) {
	// HPO validation F1 must be at least the default-parameter F1: the
	// default C=1 is inside the grid.
	mask := []bool{true, true, false, false, false, false}
	scoreOf := func(hpo bool) float64 {
		scn := mustScenario(t, easyConstraints(), model.KindLR, ModeMaximizeUtility)
		scn.HPO = hpo
		ev, err := NewEvaluator(scn, budget.NewSim(1e9), 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ev.Evaluate(mask); err != nil {
			t.Fatal(err)
		}
		return ev.Best().Val.F1
	}
	if plain, grid := scoreOf(false), scoreOf(true); grid < plain-1e-9 {
		t.Fatalf("HPO F1 %v below default-parameter F1 %v", grid, plain)
	}
}

func TestSVMScenarioRuns(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindSVM, ModeSatisfy)
	s, _ := New("SFS(NR)")
	res, err := RunStrategy(context.Background(), s, scn, nil, nil, 3, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied {
		t.Skipf("SVM scenario not satisfied (distance %v)", res.BestValDistance)
	}
	if res.TestScores.F1 < 0.6 {
		t.Fatalf("SVM test F1 %v below threshold", res.TestScores.F1)
	}
}
