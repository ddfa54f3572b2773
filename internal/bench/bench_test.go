package bench

import (
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/model"
)

// tinyConfig keeps tests fast: three small datasets, few scenarios, tight
// compute guards.
func tinyConfig(mode core.Mode, hpo bool) Config {
	return Config{
		Scenarios: 10,
		Seed:      1,
		HPO:       hpo,
		Mode:      mode,
		MaxEvals:  25,
		Datasets:  []string{"COMPAS", "Indian Liver Patient", "Brazil Tourism"},
		Sampler:   constraint.SamplerConfig{MinSearchCost: 10, MaxSearchCost: 2000},
	}
}

// sharedPool is built once; most table tests only read it.
var sharedPool *Pool

func getSharedPool(t *testing.T) *Pool {
	t.Helper()
	if sharedPool == nil {
		p, err := BuildPool(tinyConfig(core.ModeSatisfy, false))
		if err != nil {
			t.Fatal(err)
		}
		sharedPool = p
	}
	return sharedPool
}

func TestBuildPoolShape(t *testing.T) {
	p := getSharedPool(t)
	if len(p.Records) != 10 {
		t.Fatalf("records %d", len(p.Records))
	}
	for i := range p.Records {
		r := &p.Records[i]
		if r.ID != i {
			t.Fatalf("record %d has ID %d", i, r.ID)
		}
		if len(r.Results) != len(core.StrategyNames)+1 {
			t.Fatalf("record %d has %d results", i, len(r.Results))
		}
		if len(r.MetaX) == 0 {
			t.Fatalf("record %d missing featurization", i)
		}
		if err := r.Constraints.Validate(); err != nil {
			t.Fatalf("record %d constraints: %v", i, err)
		}
		found := false
		for _, ds := range tinyConfig(core.ModeSatisfy, false).Datasets {
			if r.Dataset == ds {
				found = true
			}
		}
		if !found {
			t.Fatalf("record %d unexpected dataset %q", i, r.Dataset)
		}
	}
}

func TestBuildPoolDeterministic(t *testing.T) {
	cfg := tinyConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 4
	a, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Records {
		ra, rb := &a.Records[i], &b.Records[i]
		if ra.Dataset != rb.Dataset || ra.Model != rb.Model || ra.Constraints != rb.Constraints {
			t.Fatal("scenario sampling not deterministic")
		}
		for name, outA := range ra.Results {
			outB := rb.Results[name]
			if outA.Satisfied != outB.Satisfied || outA.TotalCost != outB.TotalCost {
				t.Fatalf("strategy %s outcome differs across identical runs", name)
			}
		}
	}
}

func TestSatisfiableAndFastest(t *testing.T) {
	p := getSharedPool(t)
	sat := p.SatisfiableIDs()
	if len(sat) == 0 {
		t.Fatal("no satisfiable scenarios in the tiny pool; sampler or strategies broken")
	}
	for _, id := range sat {
		r := &p.Records[id]
		f := r.FastestStrategy()
		if f == "" {
			t.Fatal("satisfiable record without fastest strategy")
		}
		if !r.Results[f].Satisfied {
			t.Fatal("fastest strategy did not satisfy")
		}
		// No satisfied strategy may be strictly faster.
		for _, s := range core.StrategyNames {
			out := r.Results[s]
			if out.Satisfied && out.CostAtSolution < r.Results[f].CostAtSolution {
				t.Fatalf("fastest selection wrong: %s beat %s", s, f)
			}
		}
	}
}

func TestEvaluateOptimizerCoversAllRecords(t *testing.T) {
	p := getSharedPool(t)
	eval, err := EvaluateOptimizer(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Records {
		if _, ok := eval.Chosen[i]; !ok {
			t.Fatalf("record %d has no optimizer choice", i)
		}
		if _, ok := eval.Predicted[i]; !ok {
			t.Fatalf("record %d has no predictions", i)
		}
	}
	// Chosen strategies must be known names.
	known := map[string]bool{}
	for _, s := range core.StrategyNames {
		known[s] = true
	}
	for id, s := range eval.Chosen {
		if !known[s] {
			t.Fatalf("record %d chose unknown strategy %q", id, s)
		}
	}
}

func TestTable3Structure(t *testing.T) {
	p := getSharedPool(t)
	eval, err := EvaluateOptimizer(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	res := Table3(p, p, eval)
	// Original + 16 strategies + optimizer + oracle.
	if len(res.Rows) != 19 {
		t.Fatalf("rows %d, want 19", len(res.Rows))
	}
	if res.Rows[0].Strategy != core.OriginalFeaturesName {
		t.Fatal("first row must be the baseline")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Strategy != "Oracle" || last.HPOCoverage.Mean != 1 {
		t.Fatalf("oracle row wrong: %+v", last)
	}
	for _, r := range res.Rows {
		for _, v := range []MeanStd{r.DefaultCoverage, r.HPOCoverage, r.DefaultFastest, r.HPOFastest} {
			if v.Mean < 0 || v.Mean > 1 {
				t.Fatalf("%s value %v out of range", r.Strategy, v)
			}
		}
	}
	// Rendering includes headers and all rows.
	text := res.Render()
	if !strings.Contains(text, "SFFS(NR)") || !strings.Contains(text, "DFS Optimizer") {
		t.Fatal("render missing rows")
	}
}

func TestFastestFractionsCoverEveryScenario(t *testing.T) {
	p := getSharedPool(t)
	// Ties are credited to every tied strategy, so the global sum of
	// fastest fractions is at least 1 (and exactly 1 without ties).
	total := 0.0
	for _, s := range core.StrategyNames {
		s := s
		total += globalFraction(p, nil, func(r *Record) bool { return r.fastestContains(s) })
	}
	if total < 0.99 {
		t.Fatalf("fastest fractions sum to %v, want >= 1", total)
	}
	// Every satisfiable scenario has a non-empty fastest set whose members
	// are all genuinely minimal.
	for _, id := range p.SatisfiableIDs() {
		r := &p.Records[id]
		set := r.FastestSet()
		if len(set) == 0 {
			t.Fatal("satisfiable record without fastest set")
		}
		best := r.Results[set[0]].CostAtSolution
		for _, s := range set {
			if r.Results[s].CostAtSolution > best*(1+1e-6)+1e-12 {
				t.Fatalf("non-minimal member %s in fastest set", s)
			}
		}
	}
}

func TestTable4DistancesNonNegative(t *testing.T) {
	p := getSharedPool(t)
	res := Table4(p, nil)
	if len(res.Rows) != 17 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.DistanceVal.Mean < 0 || r.DistanceTest.Mean < 0 {
			t.Fatalf("%s negative distance", r.Strategy)
		}
	}
	if !strings.Contains(res.Render(), "Dist(Val)") {
		t.Fatal("render missing header")
	}
}

func TestTable4NormalizedF1WithUtilityPool(t *testing.T) {
	// Same seed as the shared satisfy-mode pool: its satisfiable scenarios
	// are satisfiable in utility mode too.
	up, err := BuildPool(tinyConfig(core.ModeMaximizeUtility, false))
	if err != nil {
		t.Fatal(err)
	}
	res := Table4(getSharedPool(t), up)
	anyPositive := false
	for _, r := range res.Rows {
		v := r.MeanNormalizedF1.Mean
		if v < 0 || v > 1 {
			t.Fatalf("%s normalized F1 %v out of range", r.Strategy, v)
		}
		if v > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Fatal("no strategy achieved any normalized F1")
	}
}

func TestTable5And6Structure(t *testing.T) {
	p := getSharedPool(t)
	t5 := Table5(p)
	if len(t5.Coverage) != 17 {
		t.Fatalf("table5 strategies %d", len(t5.Coverage))
	}
	for s, row := range t5.Coverage {
		for _, col := range Table5Columns {
			v := row[col]
			if v < 0 || v > 1 {
				t.Fatalf("table5 %s/%s = %v", s, col, v)
			}
		}
	}
	t6 := Table6(p)
	for s, row := range t6.Coverage {
		for _, k := range model.Kinds {
			if v := row[k]; v < 0 || v > 1 {
				t.Fatalf("table6 %s/%s = %v", s, k, v)
			}
		}
	}
	if !strings.Contains(t5.Render(), "MinEO") || !strings.Contains(t6.Render(), "NB") {
		t.Fatal("renders missing headers")
	}
}

func TestTable8GreedyMonotone(t *testing.T) {
	p := getSharedPool(t)
	res := Table8(p)
	if len(res.CoverageSteps) == 0 || len(res.FastestSteps) == 0 {
		t.Fatal("empty portfolios")
	}
	for i := 1; i < len(res.CoverageSteps); i++ {
		if res.CoverageSteps[i].Achieved.Mean < res.CoverageSteps[i-1].Achieved.Mean-1e-9 {
			t.Fatal("coverage portfolio not monotone")
		}
	}
	for i := 1; i < len(res.FastestSteps); i++ {
		if res.FastestSteps[i].Achieved.Mean < res.FastestSteps[i-1].Achieved.Mean-1e-9 {
			t.Fatal("fastest portfolio not monotone")
		}
	}
	// No duplicates within a portfolio.
	seen := map[string]bool{}
	for _, step := range res.CoverageSteps {
		if seen[step.Added] {
			t.Fatalf("duplicate %s in portfolio", step.Added)
		}
		seen[step.Added] = true
	}
	// The fastest portfolio, once it contains every strategy that was ever
	// fastest, reaches 1.
	lastFast := res.FastestSteps[len(res.FastestSteps)-1].Achieved.Mean
	if len(res.FastestSteps) == len(core.StrategyNames) && lastFast < 0.999 {
		t.Fatalf("full fastest portfolio achieves %v", lastFast)
	}
	if !strings.Contains(res.Render(), "Coverage combination") {
		t.Fatal("render missing header")
	}
}

func TestTable9Bounds(t *testing.T) {
	p := getSharedPool(t)
	eval, err := EvaluateOptimizer(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	res := Table9(p, eval)
	if len(res.Rows) != len(core.StrategyNames) {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, v := range []MeanStd{r.Precision, r.Recall, r.F1} {
			if v.Mean < 0 || v.Mean > 1 {
				t.Fatalf("%s metric %v out of range", r.Strategy, v)
			}
		}
	}
	if !strings.Contains(res.Render(), "Precision") {
		t.Fatal("render missing header")
	}
}

func TestTable7Transfer(t *testing.T) {
	p := getSharedPool(t)
	res, err := Table7(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		for _, v := range []MeanStd{r.MinAccuracy, r.MinEO, r.MinSafety} {
			if v.Mean < 0 || v.Mean > 1 {
				t.Fatalf("%s fraction %v out of range", r.TargetModel, v)
			}
		}
	}
	if !strings.Contains(res.Render(), "SFFS") {
		t.Fatal("render missing model rows")
	}
}

func TestFigure1Points(t *testing.T) {
	points, err := Figure1(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4*len(model.Kinds) {
		t.Fatalf("points %d", len(points))
	}
	for _, pt := range points {
		if pt.F1 < 0 || pt.F1 > 1 || pt.EO < 0 || pt.EO > 1 ||
			pt.Safety < 0 || pt.Safety > 1 || pt.SizeFrac <= 0 || pt.SizeFrac > 1 {
			t.Fatalf("point out of range: %+v", pt)
		}
	}
	csv := RenderFigure1(points)
	if !strings.HasPrefix(csv, "model,") || strings.Count(csv, "\n") != len(points)+1 {
		t.Fatal("CSV render wrong")
	}
}

func TestFigure4Heatmap(t *testing.T) {
	p := getSharedPool(t)
	eval, err := EvaluateOptimizer(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	fig := Figure4(p, eval)
	if len(fig.Rows) != 19 {
		t.Fatalf("rows %d, want 19", len(fig.Rows))
	}
	for _, row := range fig.Rows {
		if len(row.Coverage) != len(fig.Datasets) {
			t.Fatalf("%s row width %d", row.Strategy, len(row.Coverage))
		}
		for _, v := range row.Coverage {
			if v < 0 || v > 1 {
				t.Fatalf("%s coverage %v", row.Strategy, v)
			}
		}
	}
	oracle := fig.Rows[len(fig.Rows)-1]
	for _, v := range oracle.Coverage {
		if v != 1 {
			t.Fatal("oracle row must be all ones")
		}
	}
	if !strings.Contains(fig.Render(), "Oracle") {
		t.Fatal("render missing oracle")
	}
}

func TestFigure5SmallGrid(t *testing.T) {
	res, err := Figure5(Figure5Config{GridN: 2, Budget: 300, MaxEvals: 12,
		Dataset: "COMPAS", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 4 {
		t.Fatalf("pairs %d", len(res.Pairs))
	}
	known := map[string]bool{"": true}
	for _, s := range core.StrategyNames {
		known[s] = true
	}
	for pt, cells := range res.Pairs {
		if len(cells) != 4 {
			t.Fatalf("%s cells %d", pt, len(cells))
		}
		for _, c := range cells {
			if !known[c.Winner] {
				t.Fatalf("unknown winner %q", c.Winner)
			}
		}
	}
	if !strings.Contains(res.Render(), "accuracy x EO") {
		t.Fatal("render missing pair headers")
	}
}
