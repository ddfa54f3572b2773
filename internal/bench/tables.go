package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/model"
)

// Table3Row is one strategy row of Table 3.
type Table3Row struct {
	Strategy        string
	DefaultFastest  MeanStd
	DefaultCoverage MeanStd
	HPOFastest      MeanStd
	HPOCoverage     MeanStd
}

// Table3Result reproduces Table 3: fraction of fastest cases and coverage
// per strategy, under default parameters and under HPO, plus the Original
// Features baseline, the DFS Optimizer (leave-one-dataset-out), and the
// Oracle.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 computes the table from a default-parameter pool and an HPO pool.
// The optimizer row reads eval, the optimizer's evaluation on the HPO pool
// only (EvaluateOptimizer), as in the paper.
func Table3(defaultPool, hpoPool *Pool, eval *OptimizerEval) *Table3Result {
	res := &Table3Result{}
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		res.Rows = append(res.Rows, Table3Row{
			Strategy:        s,
			DefaultFastest:  fastestFraction(defaultPool, s),
			DefaultCoverage: coverage(defaultPool, s),
			HPOFastest:      fastestFraction(hpoPool, s),
			HPOCoverage:     coverage(hpoPool, s),
		})
	}
	res.Rows = append(res.Rows, Table3Row{
		Strategy:    "DFS Optimizer",
		HPOFastest:  optimizerFastest(hpoPool, eval),
		HPOCoverage: optimizerCoverage(hpoPool, eval),
	})
	res.Rows = append(res.Rows, Table3Row{
		Strategy:        "Oracle",
		DefaultFastest:  MeanStd{Mean: 1, N: 1},
		DefaultCoverage: MeanStd{Mean: 1, N: 1},
		HPOFastest:      MeanStd{Mean: 1, N: 1},
		HPOCoverage:     MeanStd{Mean: 1, N: 1},
	})
	return res
}

// Render formats the table as aligned text.
func (t *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %14s %14s %14s\n", "Strategy",
		"Def.Fastest", "Def.Coverage", "HPO.Fastest", "HPO.Coverage")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s %14s %14s %14s %14s\n", r.Strategy,
			r.DefaultFastest, r.DefaultCoverage, r.HPOFastest, r.HPOCoverage)
	}
	return b.String()
}

// Table4Row is one strategy row of Table 4.
type Table4Row struct {
	Strategy         string
	DistanceVal      MeanStd
	DistanceTest     MeanStd
	MeanNormalizedF1 MeanStd
}

// Table4Result reproduces Table 4: the mean Eq. 1 distance to the
// constraints on validation and test data over the unsuccessful runs, and
// the mean normalized F1 score achieved in the utility-driven benchmark.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 computes the failure distances from the HPO pool and the
// normalized F1 from a utility-mode pool.
func Table4(hpoPool, utilityPool *Pool) *Table4Result {
	res := &Table4Result{}
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		var dv, dt []float64
		for i := range hpoPool.Records {
			r := &hpoPool.Records[i]
			if !r.Satisfiable() {
				continue
			}
			out := r.Results[s]
			if out.Satisfied {
				continue
			}
			dv = append(dv, out.BestValDistance)
			dt = append(dt, out.BestTestDistance)
		}
		row := Table4Row{Strategy: s, DistanceVal: meanStd(dv), DistanceTest: meanStd(dt)}
		if utilityPool != nil {
			row.MeanNormalizedF1 = normalizedF1(utilityPool, s)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// normalizedF1 implements the paper's normalized mean F1: per scenario the
// strategy's achieved F1 is divided by the best F1 any strategy achieved,
// averaged per dataset and then across datasets.
func normalizedF1(p *Pool, strategy string) MeanStd {
	var perDataset []float64
	for _, ds := range datasetsOf(p) {
		var vals []float64
		for i := range p.Records {
			r := &p.Records[i]
			if r.Dataset != ds {
				continue
			}
			best := 0.0
			for _, s := range core.StrategyNames {
				if out := r.Results[s]; out.Satisfied && out.TestScores.F1 > best {
					best = out.TestScores.F1
				}
			}
			if best == 0 {
				continue // nobody satisfied: normalization undefined
			}
			achieved := 0.0
			if out := r.Results[strategy]; out.Satisfied {
				achieved = out.TestScores.F1
			}
			vals = append(vals, achieved/best)
		}
		if len(vals) > 0 {
			m, _ := meanStdPair(vals)
			perDataset = append(perDataset, m)
		}
	}
	return meanStd(perDataset)
}

func meanStdPair(vals []float64) (float64, float64) {
	ms := meanStd(vals)
	return ms.Mean, ms.Std
}

// Render formats Table 4.
func (t *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %14s %14s %14s\n", "Strategy",
		"Dist(Val)", "Dist(Test)", "NormF1")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s %14s %14s %14s\n", r.Strategy,
			r.DistanceVal, r.DistanceTest, r.MeanNormalizedF1)
	}
	return b.String()
}

// Table5Result reproduces Table 5: the coverage of each strategy restricted
// to scenarios that declared a given optional constraint.
type Table5Result struct {
	// Coverage[strategy][constraint] with constraint ∈ Table5Columns.
	Coverage map[string]map[string]float64
}

// Table5Columns are the optional-constraint columns of Table 5.
var Table5Columns = []string{"Min EO", "Max Feature Set Size", "Min Safety", "Min Privacy"}

// Table5 computes the constraint-conditioned coverages from the HPO pool.
func Table5(p *Pool) *Table5Result {
	res := &Table5Result{Coverage: make(map[string]map[string]float64)}
	conds := map[string]func(r *Record) bool{
		"Min EO":               func(r *Record) bool { return r.Constraints.HasEO() },
		"Max Feature Set Size": func(r *Record) bool { return r.Constraints.HasFeatureCap() },
		"Min Safety":           func(r *Record) bool { return r.Constraints.HasSafety() },
		"Min Privacy":          func(r *Record) bool { return r.Constraints.HasPrivacy() },
	}
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		res.Coverage[s] = make(map[string]float64, len(conds))
		for col, cond := range conds {
			res.Coverage[s][col] = globalFraction(p, cond, func(r *Record) bool {
				return r.Results[s].Satisfied
			})
		}
	}
	return res
}

// Render formats Table 5.
func (t *Table5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %10s %10s %11s\n", "Strategy", "MinEO", "MaxFeat", "MinSafety", "MinPrivacy")
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		row := t.Coverage[s]
		fmt.Fprintf(&b, "%-22s %8.2f %10.2f %10.2f %11.2f\n", s,
			row["Min EO"], row["Max Feature Set Size"], row["Min Safety"], row["Min Privacy"])
	}
	return b.String()
}

// Table6Result reproduces Table 6: coverage per strategy per classification
// model.
type Table6Result struct {
	// Coverage[strategy][kind].
	Coverage map[string]map[model.Kind]float64
}

// Table6 computes the model-conditioned coverages.
func Table6(p *Pool) *Table6Result {
	res := &Table6Result{Coverage: make(map[string]map[model.Kind]float64)}
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		res.Coverage[s] = make(map[model.Kind]float64, len(model.Kinds))
		for _, k := range model.Kinds {
			k := k
			res.Coverage[s][k] = globalFraction(p,
				func(r *Record) bool { return r.Model == k },
				func(r *Record) bool { return r.Results[s].Satisfied })
		}
	}
	return res
}

// Render formats Table 6.
func (t *Table6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %6s\n", "Strategy", "LR", "NB", "DT")
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		row := t.Coverage[s]
		fmt.Fprintf(&b, "%-22s %6.2f %6.2f %6.2f\n", s,
			row[model.KindLR], row[model.KindNB], row[model.KindDT])
	}
	return b.String()
}

// Table8Row is one greedy step of the portfolio construction.
type Table8Row struct {
	K        int
	Added    string
	Achieved MeanStd
}

// Table8Result reproduces Table 8: the greedy top-k strategy combinations
// maximizing coverage and maximizing the fastest fraction when run in
// parallel.
type Table8Result struct {
	CoverageSteps []Table8Row
	FastestSteps  []Table8Row
}

// Table8 greedily builds both portfolios from the HPO pool.
func Table8(p *Pool) *Table8Result {
	res := &Table8Result{}

	// Coverage objective: a scenario is covered when any member satisfies.
	coverValue := func(set map[string]bool) MeanStd {
		return perDatasetFraction(p, func(r *Record) bool {
			for s := range set {
				if r.Results[s].Satisfied {
					return true
				}
			}
			return false
		})
	}
	// Fastest objective: the parallel portfolio answers as fast as the
	// overall fastest strategy iff it contains one of the tied fastest.
	fastValue := func(set map[string]bool) MeanStd {
		return perDatasetFraction(p, func(r *Record) bool {
			for _, f := range r.FastestSet() {
				if set[f] {
					return true
				}
			}
			return false
		})
	}
	res.CoverageSteps = greedyPortfolio(coverValue)
	res.FastestSteps = greedyPortfolio(fastValue)
	return res
}

// greedyPortfolio adds, at each step, the strategy that maximizes the
// objective, stopping once every strategy is added, the value saturates at
// 1, or no candidate yields a defined value (fully degraded pool: every
// objective evaluation is empty/NaN, so there is nothing left to rank).
func greedyPortfolio(value func(set map[string]bool) MeanStd) []Table8Row {
	var rows []Table8Row
	set := make(map[string]bool)
	remaining := append([]string(nil), core.StrategyNames...)
	for k := 1; len(remaining) > 0; k++ {
		bestIdx, bestVal := -1, MeanStd{Mean: -1}
		for i, s := range remaining {
			set[s] = true
			v := value(set)
			delete(set, s)
			if v.N == 0 || math.IsNaN(v.Mean) {
				continue
			}
			if v.Mean > bestVal.Mean {
				bestIdx, bestVal = i, v
			}
		}
		if bestIdx == -1 {
			break
		}
		chosen := remaining[bestIdx]
		set[chosen] = true
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		rows = append(rows, Table8Row{K: k, Added: chosen, Achieved: bestVal})
		if bestVal.Mean >= 0.9999 {
			break
		}
	}
	return rows
}

// Render formats Table 8.
func (t *Table8Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-42s %-12s %-42s %-12s\n", "k",
		"Coverage combination", "Achieved", "Fastest combination", "Achieved")
	n := len(t.CoverageSteps)
	if len(t.FastestSteps) > n {
		n = len(t.FastestSteps)
	}
	for i := 0; i < n; i++ {
		var c, cv, f, fv string
		if i < len(t.CoverageSteps) {
			c, cv = "+ "+t.CoverageSteps[i].Added, t.CoverageSteps[i].Achieved.String()
		}
		if i < len(t.FastestSteps) {
			f, fv = "+ "+t.FastestSteps[i].Added, t.FastestSteps[i].Achieved.String()
		}
		fmt.Fprintf(&b, "%-4d %-42s %-12s %-42s %-12s\n", i+1, c, cv, f, fv)
	}
	return b.String()
}

// Table9Row is one strategy's meta-learning quality.
type Table9Row struct {
	Strategy  string
	Precision MeanStd
	Recall    MeanStd
	F1        MeanStd
}

// Table9Result reproduces Table 9: the per-strategy precision/recall/F1 of
// the optimizer's satisfaction predictions under leave-one-dataset-out.
type Table9Result struct {
	Rows []Table9Row
}

// Table9 computes the meta-learning accuracy from an optimizer evaluation.
func Table9(p *Pool, eval *OptimizerEval) *Table9Result {
	res := &Table9Result{}
	for _, s := range core.StrategyNames {
		var precs, recs, f1s []float64
		for _, ds := range datasetsOf(p) {
			var tp, fp, fn int
			for i := range p.Records {
				r := &p.Records[i]
				if r.Dataset != ds {
					continue
				}
				pred, ok := eval.Predicted[r.ID]
				if !ok {
					continue
				}
				actual := r.Results[s].Satisfied
				switch {
				case pred[s] && actual:
					tp++
				case pred[s] && !actual:
					fp++
				case !pred[s] && actual:
					fn++
				}
			}
			if tp+fp+fn == 0 {
				continue // nothing positive to score on this dataset
			}
			prec, rec := 0.0, 0.0
			if tp+fp > 0 {
				prec = float64(tp) / float64(tp+fp)
			}
			if tp+fn > 0 {
				rec = float64(tp) / float64(tp+fn)
			}
			f1 := 0.0
			if prec+rec > 0 {
				f1 = 2 * prec * rec / (prec + rec)
			}
			precs = append(precs, prec)
			recs = append(recs, rec)
			f1s = append(f1s, f1)
		}
		res.Rows = append(res.Rows, Table9Row{
			Strategy:  s,
			Precision: meanStd(precs),
			Recall:    meanStd(recs),
			F1:        meanStd(f1s),
		})
	}
	return res
}

// Render formats Table 9.
func (t *Table9Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %12s %12s %12s\n", "Strategy", "Precision", "Recall", "F1")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s %12s %12s %12s\n", r.Strategy, r.Precision, r.Recall, r.F1)
	}
	return b.String()
}

// sortStrings returns a sorted copy (test helper convenience).
func sortStrings(in []string) []string {
	out := append([]string(nil), in...)
	sort.Strings(out)
	return out
}
