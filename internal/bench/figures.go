package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"github.com/declarative-fs/dfs/internal/attack"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/metrics"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Figure1Point is one random feature subset evaluated for Figure 1: the
// accuracy trade-off with equal opportunity, feature-set size, and safety on
// the COMPAS dataset, per model.
type Figure1Point struct {
	Model       model.Kind
	NumFeatures int
	F1          float64
	EO          float64
	SizeFrac    float64
	Safety      float64
}

// Figure1 samples random feature subsets of the COMPAS profile, trains each
// of LR, NB, and DT on every subset, and reports the four metrics per point.
// The scatter of these points is the paper's Figure 1.
func Figure1(subsets int, seed uint64) ([]Figure1Point, error) {
	d, err := getDataset(seed, "COMPAS")
	if err != nil {
		return nil, err
	}
	split, err := dataset.StratifiedSplit(d, xrand.NewStream(seed, 0xf1))
	if err != nil {
		return nil, err
	}
	rng := xrand.NewStream(seed, 0xf19)
	var out []Figure1Point
	p := d.Features()
	for s := 0; s < subsets; s++ {
		k := 1 + rng.Intn(p)
		cols := rng.Sample(p, k)
		train := split.Train.SelectFeatures(cols)
		test := split.Test.SelectFeatures(cols)
		for _, kind := range model.Kinds {
			clf, err := model.New(model.Spec{Kind: kind})
			if err != nil {
				return nil, err
			}
			if err := clf.Fit(train); err != nil {
				return nil, err
			}
			pred := model.PredictBatch(clf, test.X)
			safety, _ := attack.EmpiricalRobustness(clf, test, 6, rng.Split())
			out = append(out, Figure1Point{
				Model:       kind,
				NumFeatures: k,
				F1:          metrics.F1Score(test.Y, pred),
				EO:          metrics.EqualOpportunity(test.Y, pred, test.Sensitive),
				SizeFrac:    float64(k) / float64(p),
				Safety:      safety,
			})
		}
	}
	return out, nil
}

// RenderFigure1 emits the scatter as CSV-like series (one row per point).
func RenderFigure1(points []Figure1Point) string {
	var b strings.Builder
	b.WriteString("model,num_features,f1,eo,size_frac,safety\n")
	for _, p := range points {
		fmt.Fprintf(&b, "%s,%d,%.4f,%.4f,%.4f,%.4f\n",
			p.Model, p.NumFeatures, p.F1, p.EO, p.SizeFrac, p.Safety)
	}
	return b.String()
}

// Figure4Result is the per-dataset coverage heatmap: one row per strategy
// (plus the baseline, the optimizer, and the oracle), one column per
// dataset.
type Figure4Result struct {
	Datasets []string
	Rows     []Figure4Row
}

// Figure4Row is one heatmap row.
type Figure4Row struct {
	Strategy string
	Coverage []float64 // aligned with Figure4Result.Datasets
}

// Figure4 computes the heatmap from the HPO pool and the LODO optimizer
// evaluation.
func Figure4(p *Pool, eval *OptimizerEval) *Figure4Result {
	ds := datasetsOf(p)
	res := &Figure4Result{Datasets: ds}

	coverageOn := func(dsName string, hit func(r *Record) bool) float64 {
		total, hits := 0, 0
		for i := range p.Records {
			r := &p.Records[i]
			if r.Dataset != dsName || !r.Satisfiable() {
				continue
			}
			total++
			if hit(r) {
				hits++
			}
		}
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}

	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		row := Figure4Row{Strategy: s}
		for _, dsName := range ds {
			row.Coverage = append(row.Coverage, coverageOn(dsName, func(r *Record) bool {
				return r.Results[s].Satisfied
			}))
		}
		res.Rows = append(res.Rows, row)
	}
	optRow := Figure4Row{Strategy: "DFS Optimizer"}
	for _, dsName := range ds {
		optRow.Coverage = append(optRow.Coverage, coverageOn(dsName, func(r *Record) bool {
			chosen, ok := eval.Chosen[r.ID]
			return ok && r.Results[chosen].Satisfied
		}))
	}
	res.Rows = append(res.Rows, optRow)
	oracle := Figure4Row{Strategy: "Oracle"}
	for range ds {
		oracle.Coverage = append(oracle.Coverage, 1)
	}
	res.Rows = append(res.Rows, oracle)
	return res
}

// Render formats the heatmap as an aligned matrix.
func (f *Figure4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "Strategy")
	for _, ds := range f.Datasets {
		fmt.Fprintf(&b, " %12s", abbreviate(ds, 12))
	}
	b.WriteByte('\n')
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-22s", row.Strategy)
		for _, v := range row.Coverage {
			fmt.Fprintf(&b, " %12.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func abbreviate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

// Figure5Cell is one grid cell of the constraint-pair sweep: the fastest
// strategy for a (min F1, second threshold) combination, or "" when no
// strategy satisfied it.
type Figure5Cell struct {
	MinF1     float64
	Threshold float64
	Winner    string
}

// Figure5Result holds one grid per constraint pair.
type Figure5Result struct {
	// Pairs maps the second constraint type ("EO", "privacy", "features",
	// "safety") to its grid cells.
	Pairs map[string][]Figure5Cell
}

// Figure5Config bounds the sweep.
type Figure5Config struct {
	// GridN is the per-axis resolution; 0 means 5.
	GridN int
	// Budget is the fixed search budget per cell; 0 means 600 cost units.
	Budget float64
	// MaxEvals is the per-run real-compute guard; 0 means 80.
	MaxEvals int
	// Dataset is the profile; empty means "Adult" (the paper's choice).
	Dataset string
	// HPO mirrors the main benchmark; the paper reports HPO results.
	HPO bool
	// Seed drives determinism.
	Seed uint64
}

func (c Figure5Config) withDefaults() Figure5Config {
	if c.GridN == 0 {
		c.GridN = 5
	}
	if c.Budget == 0 {
		c.Budget = 600
	}
	if c.MaxEvals == 0 {
		c.MaxEvals = 80
	}
	if c.Dataset == "" {
		c.Dataset = "Adult"
	}
	return c
}

// Figure5 sweeps the four constraint pairs accuracy × {EO, privacy,
// #features, safety} over a threshold grid on the Adult profile and reports
// the fastest satisfying strategy per cell.
func Figure5(cfg Figure5Config) (*Figure5Result, error) {
	cfg = cfg.withDefaults()
	d, err := getDataset(cfg.Seed, cfg.Dataset)
	if err != nil {
		return nil, err
	}
	res := &Figure5Result{Pairs: make(map[string][]Figure5Cell)}
	pairTypes := []string{"EO", "privacy", "features", "safety"}

	for _, pt := range pairTypes {
		for i := 0; i < cfg.GridN; i++ {
			minF1 := 0.5 + 0.45*float64(i)/float64(cfg.GridN-1)
			for j := 0; j < cfg.GridN; j++ {
				frac := float64(j) / float64(cfg.GridN-1)
				cs := constraint.Set{MinF1: minF1, MaxSearchCost: cfg.Budget, MaxFeatureFrac: 1}
				var thr float64
				switch pt {
				case "EO":
					thr = 0.8 + 0.2*frac
					cs.MinEO = thr
				case "privacy":
					thr = 0.1 + 4.9*frac // ε from harsh to loose
					cs.PrivacyEps = thr
				case "features":
					thr = 0.05 + 0.9*frac
					cs.MaxFeatureFrac = thr
				case "safety":
					thr = 0.8 + 0.2*frac
					cs.MinSafety = thr
				}
				cell, err := figure5Cell(d, cs, cfg, minF1, thr)
				if err != nil {
					return nil, err
				}
				res.Pairs[pt] = append(res.Pairs[pt], cell)
			}
		}
	}
	return res, nil
}

func figure5Cell(d *dataset.Dataset, cs constraint.Set, cfg Figure5Config, minF1, thr float64) (Figure5Cell, error) {
	scn, err := core.NewScenario(d, model.KindLR, cs, cfg.HPO, core.ModeSatisfy, cfg.Seed)
	if err != nil {
		return Figure5Cell{}, err
	}
	scn.AttackInstances = 4
	winner, bestCost := "", 0.0
	for _, name := range core.StrategyNames {
		s, err := core.New(name)
		if err != nil {
			return Figure5Cell{}, err
		}
		out, err := core.RunStrategy(context.Background(), s, scn, nil, nil, cfg.Seed^0xf5, cfg.MaxEvals)
		if err != nil {
			return Figure5Cell{}, err
		}
		if out.Satisfied && (winner == "" || out.CostAtSolution < bestCost) {
			winner, bestCost = name, out.CostAtSolution
		}
	}
	return Figure5Cell{MinF1: minF1, Threshold: thr, Winner: winner}, nil
}

// jsonFloat serializes like a float64 but renders NaN and ±Inf as null:
// encoding/json rejects non-finite floats outright, and a degraded pool
// (failed strategy runs) can push NaN into figure metrics. null marks "no
// data" in a way every JSON consumer can handle.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// WriteFiguresJSON emits the figure data as one machine-readable JSON
// document. Non-finite values serialize as null, never as "NaN" (which
// encoding/json would refuse and ad-hoc writers would emit invalid JSON
// for). Nil figure arguments are simply omitted.
func WriteFiguresJSON(w io.Writer, f1 []Figure1Point, f4 *Figure4Result, f5 *Figure5Result) error {
	type f1Point struct {
		Model       string    `json:"model"`
		NumFeatures int       `json:"num_features"`
		F1          jsonFloat `json:"f1"`
		EO          jsonFloat `json:"eo"`
		SizeFrac    jsonFloat `json:"size_frac"`
		Safety      jsonFloat `json:"safety"`
	}
	type f4Row struct {
		Strategy string      `json:"strategy"`
		Coverage []jsonFloat `json:"coverage"`
	}
	type f4Doc struct {
		Datasets []string `json:"datasets"`
		Rows     []f4Row  `json:"rows"`
	}
	type f5Cell struct {
		MinF1     jsonFloat `json:"min_f1"`
		Threshold jsonFloat `json:"threshold"`
		Winner    string    `json:"winner"`
	}
	doc := struct {
		Figure1 []f1Point           `json:"figure1,omitempty"`
		Figure4 *f4Doc              `json:"figure4,omitempty"`
		Figure5 map[string][]f5Cell `json:"figure5,omitempty"`
	}{}
	for _, p := range f1 {
		doc.Figure1 = append(doc.Figure1, f1Point{
			Model:       string(p.Model),
			NumFeatures: p.NumFeatures,
			F1:          jsonFloat(p.F1),
			EO:          jsonFloat(p.EO),
			SizeFrac:    jsonFloat(p.SizeFrac),
			Safety:      jsonFloat(p.Safety),
		})
	}
	if f4 != nil {
		d := &f4Doc{Datasets: f4.Datasets}
		for _, row := range f4.Rows {
			r := f4Row{Strategy: row.Strategy}
			for _, v := range row.Coverage {
				r.Coverage = append(r.Coverage, jsonFloat(v))
			}
			d.Rows = append(d.Rows, r)
		}
		doc.Figure4 = d
	}
	if f5 != nil {
		doc.Figure5 = make(map[string][]f5Cell, len(f5.Pairs))
		for pt, cells := range f5.Pairs {
			out := make([]f5Cell, 0, len(cells))
			for _, c := range cells {
				out = append(out, f5Cell{
					MinF1:     jsonFloat(c.MinF1),
					Threshold: jsonFloat(c.Threshold),
					Winner:    c.Winner,
				})
			}
			doc.Figure5[pt] = out
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// Render formats each pair's grid.
func (f *Figure5Result) Render() string {
	var b strings.Builder
	for _, pt := range []string{"EO", "privacy", "features", "safety"} {
		cells := f.Pairs[pt]
		if len(cells) == 0 {
			continue
		}
		fmt.Fprintf(&b, "== accuracy x %s ==\n", pt)
		b.WriteString("min_f1,threshold,fastest\n")
		for _, c := range cells {
			w := c.Winner
			if w == "" {
				w = "(none)"
			}
			fmt.Fprintf(&b, "%.3f,%.3f,%s\n", c.MinF1, c.Threshold, w)
		}
	}
	return b.String()
}
