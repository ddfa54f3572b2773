package bench

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/ranking"
	"github.com/declarative-fs/dfs/internal/search"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// The ablations quantify the design choices DESIGN.md calls out: the
// evaluation-independent pruning of Table 1, the floating step of the
// sequential searches (Pudil et al.), and the tree-structured Parzen
// estimator against plain random search over the ranking cut.

// PruningAblationResult compares search behaviour with and without the
// evaluation-independent feature-cap pruning.
type PruningAblationResult struct {
	// WithPruning / WithoutPruning report, per trial, whether the scenario
	// was satisfied and how many subsets were actually trained.
	WithSatisfied, WithoutSatisfied     int
	WithEvaluations, WithoutEvaluations int
	WithMeanCost, WithoutMeanCost       float64
	Trials                              int
}

// PruningAblation runs TPE(NR) — whose random proposals frequently violate
// a tight feature cap — once with the evaluation-independent pruning
// (default) and once training every cap-violating subset. The backward
// strategies are excluded by design: they run with pruning disabled always,
// because they need the wrapper score of large subsets (§6.3).
func PruningAblation(datasetName string, trials int, seed uint64) (*PruningAblationResult, error) {
	d, err := getDataset(seed, datasetName)
	if err != nil {
		return nil, err
	}
	res := &PruningAblationResult{Trials: trials}
	for trial := 0; trial < trials; trial++ {
		cs := constraint.Set{
			MinF1:          0.5,
			MaxSearchCost:  300,
			MaxFeatureFrac: 0.15,
		}
		scn, err := core.NewScenario(d, model.KindLR, cs, false, core.ModeSatisfy, seed+uint64(trial))
		if err != nil {
			return nil, err
		}
		for _, pruning := range []bool{true, false} {
			meter := budget.NewSim(cs.MaxSearchCost)
			ev, err := core.NewEvaluator(scn, meter, seed+uint64(trial), 200)
			if err != nil {
				return nil, err
			}
			ev.SetPruning(pruning)
			s, err := core.New("TPE(NR)")
			if err != nil {
				return nil, err
			}
			if err := s.Run(ev, xrand.NewStream(seed, uint64(trial)+1)); err != nil &&
				!errors.Is(err, budget.ErrExhausted) {
				return nil, err
			}
			sat := ev.Solution() != nil
			if pruning {
				res.WithEvaluations += ev.Evaluations()
				res.WithMeanCost += meter.Spent()
				if sat {
					res.WithSatisfied++
				}
			} else {
				res.WithoutEvaluations += ev.Evaluations()
				res.WithoutMeanCost += meter.Spent()
				if sat {
					res.WithoutSatisfied++
				}
			}
		}
	}
	if trials > 0 {
		res.WithMeanCost /= float64(trials)
		res.WithoutMeanCost /= float64(trials)
	}
	return res, nil
}

// Render formats the pruning ablation.
func (r *PruningAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %10s %12s %10s\n", "Variant", "Satisfied", "Trained", "MeanCost")
	fmt.Fprintf(&b, "%-18s %7d/%-2d %12d %10.2f\n", "with pruning",
		r.WithSatisfied, r.Trials, r.WithEvaluations, r.WithMeanCost)
	fmt.Fprintf(&b, "%-18s %7d/%-2d %12d %10.2f\n", "without pruning",
		r.WithoutSatisfied, r.Trials, r.WithoutEvaluations, r.WithoutMeanCost)
	return b.String()
}

// FloatingAblationResult compares the plain and floating sequential
// searches.
type FloatingAblationResult struct {
	// Rows pair each plain variant with its floating counterpart.
	Rows []FloatingAblationRow
}

// FloatingAblationRow is one plain/floating comparison.
type FloatingAblationRow struct {
	Plain, Floating      string
	PlainSatisfied       int
	FloatingSatisfied    int
	PlainBestDistance    float64
	FloatingBestDistance float64
	Trials               int
}

// FloatingAblation reruns SFS vs SFFS and SBS vs SBFS on fuzzed scenarios,
// reproducing the paper's confirmation of Pudil et al.: floating finds more
// optimal solutions.
func FloatingAblation(datasetName string, trials int, seed uint64) (*FloatingAblationResult, error) {
	d, err := getDataset(seed, datasetName)
	if err != nil {
		return nil, err
	}
	pairs := [][2]string{{"SFS(NR)", "SFFS(NR)"}, {"SBS(NR)", "SBFS(NR)"}}
	res := &FloatingAblationResult{}
	rng := xrand.NewStream(seed, 0xf10a)
	for _, pair := range pairs {
		row := FloatingAblationRow{Plain: pair[0], Floating: pair[1], Trials: trials}
		for trial := 0; trial < trials; trial++ {
			cs := constraint.Sample(rng, constraint.SamplerConfig{MinSearchCost: 50, MaxSearchCost: 800})
			scn, err := core.NewScenario(d, model.KindLR, cs, false, core.ModeSatisfy, seed+uint64(trial))
			if err != nil {
				return nil, err
			}
			for i, name := range pair {
				s, err := core.New(name)
				if err != nil {
					return nil, err
				}
				out, err := core.RunStrategy(context.Background(), s, scn, nil, nil, seed+uint64(trial), 120)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					row.PlainBestDistance += out.BestValDistance
					if out.Satisfied {
						row.PlainSatisfied++
					}
				} else {
					row.FloatingBestDistance += out.BestValDistance
					if out.Satisfied {
						row.FloatingSatisfied++
					}
				}
			}
		}
		if trials > 0 {
			row.PlainBestDistance /= float64(trials)
			row.FloatingBestDistance /= float64(trials)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the floating ablation.
func (r *FloatingAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-10s %12s %12s %12s %12s\n", "Plain", "Floating",
		"PlainSat", "FloatSat", "PlainDist", "FloatDist")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %-10s %9d/%-2d %9d/%-2d %12.4f %12.4f\n",
			row.Plain, row.Floating,
			row.PlainSatisfied, row.Trials, row.FloatingSatisfied, row.Trials,
			row.PlainBestDistance, row.FloatingBestDistance)
	}
	return b.String()
}

// TPEAblationResult compares guided TPE against pure random search over the
// ranking cut point.
type TPEAblationResult struct {
	TPESatisfied, RandomSatisfied int
	TPEMeanEvals, RandomMeanEvals float64
	Trials                        int
}

// TPEAblation runs the χ²-ranking strategy with a normal TPE configuration
// and with an all-random one (more startup trials than TPE ever runs) on
// fuzzed scenarios, comparing evaluations spent until satisfaction.
func TPEAblation(datasetName string, trials int, seed uint64) (*TPEAblationResult, error) {
	d, err := getDataset(seed, datasetName)
	if err != nil {
		return nil, err
	}
	res := &TPEAblationResult{Trials: trials}
	rng := xrand.NewStream(seed, 0x7bea)
	for trial := 0; trial < trials; trial++ {
		cs := constraint.Sample(rng, constraint.SamplerConfig{MinSearchCost: 50, MaxSearchCost: 800})
		scn, err := core.NewScenario(d, model.KindLR, cs, false, core.ModeSatisfy, seed+uint64(trial))
		if err != nil {
			return nil, err
		}
		for _, guided := range []bool{true, false} {
			meter := budget.NewSim(cs.MaxSearchCost)
			ev, err := core.NewEvaluator(scn, meter, seed+uint64(trial), 120)
			if err != nil {
				return nil, err
			}
			cfg := search.TPEConfig{}
			if !guided {
				cfg.StartupTrials = 1 << 20 // never leaves the random phase
			}
			if err := runChi2TopK(ev, cfg, xrand.NewStream(seed, uint64(trial)*2+3)); err != nil {
				return nil, err
			}
			sat := ev.Solution() != nil
			if guided {
				res.TPEMeanEvals += float64(ev.Evaluations())
				if sat {
					res.TPESatisfied++
				}
			} else {
				res.RandomMeanEvals += float64(ev.Evaluations())
				if sat {
					res.RandomSatisfied++
				}
			}
		}
	}
	if trials > 0 {
		res.TPEMeanEvals /= float64(trials)
		res.RandomMeanEvals /= float64(trials)
	}
	return res, nil
}

// runChi2TopK mirrors the TPE(Chi2) strategy with a custom TPE config.
func runChi2TopK(ev *core.Evaluator, cfg search.TPEConfig, rng *xrand.RNG) error {
	if err := ev.ChargeRanking(budget.RankChi2); err != nil {
		if errors.Is(err, budget.ErrExhausted) {
			return nil
		}
		return err
	}
	scores, err := chi2Scores(ev)
	if err != nil {
		return err
	}
	order := argsortDescFloat(scores)
	err = search.TPETopK(ev, order, cfg, rng)
	if errors.Is(err, budget.ErrExhausted) {
		return nil
	}
	return err
}

func chi2Scores(ev *core.Evaluator) ([]float64, error) {
	return ranking.Chi2{}.Rank(ev.Scenario().Split.Train, nil)
}

func argsortDescFloat(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

// Render formats the TPE ablation.
func (r *TPEAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %12s\n", "Search", "Satisfied", "MeanEvals")
	fmt.Fprintf(&b, "%-14s %7d/%-2d %12.1f\n", "TPE", r.TPESatisfied, r.Trials, r.TPEMeanEvals)
	fmt.Fprintf(&b, "%-14s %7d/%-2d %12.1f\n", "random", r.RandomSatisfied, r.Trials, r.RandomMeanEvals)
	return b.String()
}
