package dfs

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/race"
)

func TestStrategiesList(t *testing.T) {
	s := Strategies()
	if len(s) != 16 {
		t.Fatalf("strategies %d, want 16", len(s))
	}
	joined := strings.Join(s, ",")
	for _, want := range []string{"SFFS(NR)", "TPE(FCBF)", "NSGA-II(NR)", "ES(NR)"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing strategy %s", want)
		}
	}
	// Returned slice must be a copy.
	s[0] = "mutated"
	if Strategies()[0] == "mutated" {
		t.Fatal("Strategies leaks internal state")
	}
}

func TestBuiltinDatasets(t *testing.T) {
	names := BuiltinDatasets()
	if len(names) != 19 {
		t.Fatalf("builtin datasets %d, want 19", len(names))
	}
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() == 0 || d.Features() == 0 {
		t.Fatal("empty generated dataset")
	}
	if _, err := GenerateBuiltin("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestSelectSatisfiesEasyConstraints(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(d, LR, Constraints{MinF1: 0.5, MaxSearchCost: 5000, MaxFeatureFrac: 1},
		WithSeed(3), WithMaxEvaluations(60))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Satisfied {
		t.Fatalf("easy scenario unsatisfied (best distance %v)", sel.BestDistance)
	}
	if sel.Strategy != "SFFS(NR)" {
		t.Fatalf("default strategy %q", sel.Strategy)
	}
	if len(sel.Features) == 0 || len(sel.FeatureNames) != len(sel.Features) {
		t.Fatalf("features %v names %v", sel.Features, sel.FeatureNames)
	}
	if sel.Test.F1 < 0.5 {
		t.Fatalf("test F1 %v below constraint", sel.Test.F1)
	}
	if sel.Cost <= 0 {
		t.Fatal("no cost accounted")
	}
}

func TestSelectWithStrategyAndHPO(t *testing.T) {
	d, err := GenerateBuiltin("Indian Liver Patient", 7)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(d, DT, Constraints{MinF1: 0.4, MaxSearchCost: 5000, MaxFeatureFrac: 1},
		WithStrategy("TPE(Chi2)"), WithHPO(), WithSeed(5), WithMaxEvaluations(40))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Strategy != "TPE(Chi2)" {
		t.Fatalf("strategy %q", sel.Strategy)
	}
}

func TestSelectUnknownStrategy(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(d, LR, Constraints{MinF1: 0.5, MaxSearchCost: 10},
		WithStrategy("Magic")); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestSelectInvalidConstraints(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(d, LR, Constraints{MinF1: 2, MaxSearchCost: 10}); err == nil {
		t.Fatal("invalid constraints accepted")
	}
}

func TestRunPortfolioPicksASatisfyingStrategy(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := RunPortfolio(d, LR, Constraints{MinF1: 0.5, MaxSearchCost: 5000, MaxFeatureFrac: 1},
		[]string{"SFS(NR)", "TPE(Variance)"}, WithSeed(3), WithMaxEvaluations(40))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Satisfied {
		t.Fatalf("portfolio unsatisfied (distance %v)", sel.BestDistance)
	}
	if sel.Strategy != "SFS(NR)" && sel.Strategy != "TPE(Variance)" {
		t.Fatalf("winner %q outside portfolio", sel.Strategy)
	}
}

func TestRunPortfolioDefaultTop5(t *testing.T) {
	d, err := GenerateBuiltin("Brazil Tourism", 9)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := RunPortfolio(d, NB, Constraints{MinF1: 0.4, MaxSearchCost: 2000, MaxFeatureFrac: 1},
		nil, WithSeed(2), WithMaxEvaluations(25))
	if err != nil {
		t.Fatal(err)
	}
	if sel == nil {
		t.Fatal("nil selection")
	}
}

// TestSelectAllocsIndependentOfGOMAXPROCS pins that no kernel fans out
// goroutines: one Select makes as many allocations per op at GOMAXPROCS 4 as
// at 1. testing.AllocsPerRun cannot check this, since it sets GOMAXPROCS
// to 1.
func TestSelectAllocsIndependentOfGOMAXPROCS(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	cs := Constraints{MinF1: 0.6, MaxSearchCost: 500, MaxFeatureFrac: 1}
	sel := func() error {
		_, err := Select(d, LR, cs, WithSeed(3), WithMaxEvaluations(30))
		return err
	}
	if err := sel(); err != nil { // let lazily built state settle
		t.Fatal(err)
	}
	allocsAt := func(procs int) int64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sel(); err != nil {
					b.Fatal(err)
				}
			}
		})
		if r.N == 0 {
			t.Fatalf("Select failed at GOMAXPROCS %d", procs)
		}
		return r.AllocsPerOp()
	}
	if one, four := allocsAt(1), allocsAt(4); one != four {
		t.Fatalf("Select makes %d allocs/op at GOMAXPROCS 1 but %d at 4", one, four)
	}
}

func TestCheckTransfer(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	cs := Constraints{MinF1: 0.5, MaxSearchCost: 5000, MaxFeatureFrac: 1}
	sel, err := Select(d, LR, cs, WithSeed(3), WithMaxEvaluations(60))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Satisfied {
		t.Skip("base selection unsatisfied")
	}
	scores, err := CheckTransfer(d, sel, DT, cs, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if scores.F1 < 0 || scores.F1 > 1 || scores.EO < 0 || scores.EO > 1 {
		t.Fatalf("transfer scores out of range: %+v", scores)
	}
	if _, err := CheckTransfer(d, &Selection{}, DT, cs); err == nil {
		t.Fatal("empty selection accepted")
	}
}

func TestCSVRoundTripThroughPublicAPI(t *testing.T) {
	tab, err := GenerateBuiltinTable("COMPAS", 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != tab.Rows() {
		t.Fatal("roundtrip row count differs")
	}
	if _, err := Preprocess(got); err != nil {
		t.Fatal(err)
	}
}

func TestSelectWithWallClock(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	// A real 5-second deadline is plenty for an easy scenario on this tiny
	// dataset; the point is exercising the wall-clock meter path.
	sel, err := Select(d, LR, Constraints{MinF1: 0.5, MaxSearchCost: 1, MaxFeatureFrac: 1},
		WithWallClock(5*time.Second), WithSeed(3), WithMaxEvaluations(40))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Satisfied {
		t.Fatalf("wall-clock run failed (distance %v)", sel.BestDistance)
	}
	// An already-expired deadline stops immediately without error.
	sel, err = Select(d, LR, Constraints{MinF1: 0.5, MaxSearchCost: 1, MaxFeatureFrac: 1},
		WithWallClock(time.Nanosecond), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Satisfied {
		t.Fatal("expired deadline still satisfied")
	}
}

func TestSelectWithCustomConstraint(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	cs := Constraints{MinF1: 0.5, MaxSearchCost: 5000, MaxFeatureFrac: 1}

	// Demographic parity as an extra declarative constraint.
	sel, err := Select(d, LR, cs,
		WithCustomConstraint("demographic parity", 0.8, DemographicParity),
		WithSeed(3), WithMaxEvaluations(80))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Satisfied {
		// Re-check the delivered feature set actually meets the custom
		// constraint on test data via transfer evaluation.
		if len(sel.Features) == 0 {
			t.Fatal("satisfied without features")
		}
	}

	// An impossible custom constraint must never be satisfied.
	impossible := func(yTrue, yPred, sensitive []int) float64 { return 0 }
	sel, err = Select(d, LR, cs,
		WithCustomConstraint("impossible", 1, impossible),
		WithSeed(3), WithMaxEvaluations(30))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Satisfied {
		t.Fatal("impossible custom constraint reported satisfied")
	}
	if sel.BestDistance < 0.9 {
		t.Fatalf("best distance %v should reflect the custom violation", sel.BestDistance)
	}

	// Invalid custom constraints are rejected.
	if _, err := Select(d, LR, cs, WithCustomConstraint("", 0.5, DemographicParity)); err == nil {
		t.Fatal("nameless custom constraint accepted")
	}
}

func TestEqualizedOddsMetricExported(t *testing.T) {
	yTrue := []int{1, 0, 1, 0}
	yPred := []int{1, 0, 1, 0}
	sens := []int{0, 0, 1, 1}
	if v := EqualizedOdds(yTrue, yPred, sens); v != 1 {
		t.Fatalf("EqualizedOdds = %v", v)
	}
	if v := DemographicParity(yTrue, yPred, sens); v != 1 {
		t.Fatalf("DemographicParity = %v", v)
	}
}

func TestPrivacySelectionUsesDPModels(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := Select(d, NB, Constraints{
		MinF1: 0.4, MaxSearchCost: 3000, MaxFeatureFrac: 1, PrivacyEps: 5,
	}, WithSeed(8), WithMaxEvaluations(40))
	if err != nil {
		t.Fatal(err)
	}
	// With a loose epsilon and low F1 bar this should usually succeed; in
	// any case it must not error and must report consistent scores.
	if sel.Satisfied && sel.Test.F1 < 0.4 {
		t.Fatalf("satisfied but test F1 %v below threshold", sel.Test.F1)
	}
}
