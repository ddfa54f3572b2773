package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/ranking"
	"github.com/declarative-fs/dfs/internal/search"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Strategy is one feature-selection strategy adapted to DFS.
type Strategy interface {
	// Name returns the paper's strategy name, e.g. "SFFS(NR)".
	Name() string
	// Run drives the search against the evaluator until it finds a
	// satisfying subset, exhausts the budget, or exhausts its schedule.
	Run(ev *Evaluator, rng *xrand.RNG) error
}

// StrategyNames lists the 16 strategies in the paper's Table 3 order.
var StrategyNames = []string{
	"SBS(NR)", "SBFS(NR)", "RFE(Model)", "TPE(MCFS)", "TPE(ReliefF)",
	"TPE(Variance)", "TPE(NR)", "NSGA-II(NR)", "TPE(MIM)", "SA(NR)",
	"ES(NR)", "TPE(Fisher)", "TPE(Chi2)", "SFS(NR)", "SFFS(NR)", "TPE(FCBF)",
}

// OriginalFeaturesName is the no-selection baseline row of Table 3.
const OriginalFeaturesName = "Original Features"

// New returns the named strategy; names follow the paper (χ² is spelled
// "TPE(Chi2)").
func New(name string) (Strategy, error) {
	switch name {
	case OriginalFeaturesName:
		return originalFeatures{}, nil
	case "ES(NR)":
		return simple{name, func(ev *Evaluator, _ *xrand.RNG) error {
			return search.Exhaustive(ev)
		}}, nil
	case "SFS(NR)":
		return simple{name, func(ev *Evaluator, _ *xrand.RNG) error {
			return search.SequentialForward(ev, false)
		}}, nil
	case "SFFS(NR)":
		return simple{name, func(ev *Evaluator, _ *xrand.RNG) error {
			return search.SequentialForward(ev, true)
		}}, nil
	case "SBS(NR)":
		return simple{name, func(ev *Evaluator, _ *xrand.RNG) error {
			// Backward selection trains its way down from the full set; it
			// cannot skip cap-violating subsets because it needs their
			// wrapper score to decide what to remove — the paper notes
			// backward strategies "do not benefit from the optimizations
			// based on the maximum feature set size" (§6.3).
			ev.SetPruning(false)
			defer ev.SetPruning(true)
			return search.SequentialBackward(ev, false)
		}}, nil
	case "SBFS(NR)":
		return simple{name, func(ev *Evaluator, _ *xrand.RNG) error {
			ev.SetPruning(false) // see SBS(NR)
			defer ev.SetPruning(true)
			return search.SequentialBackward(ev, true)
		}}, nil
	case "RFE(Model)":
		return rfeStrategy{}, nil
	case "TPE(NR)":
		return simple{name, func(ev *Evaluator, rng *xrand.RNG) error {
			return search.TPEBinary(ev, rng)
		}}, nil
	case "SA(NR)":
		return simple{name, func(ev *Evaluator, rng *xrand.RNG) error {
			return search.SimulatedAnnealing(ev, rng)
		}}, nil
	case "NSGA-II(NR)":
		return simple{name, func(ev *Evaluator, rng *xrand.RNG) error {
			return search.NSGA2(ev, rng)
		}}, nil
	case "TPE(Variance)":
		return topK{name, ranking.Variance{}}, nil
	case "TPE(Chi2)":
		return topK{name, ranking.Chi2{}}, nil
	case "TPE(Fisher)":
		return topK{name, ranking.Fisher{}}, nil
	case "TPE(MIM)":
		return topK{name, ranking.MIM{}}, nil
	case "TPE(FCBF)":
		return topK{name, ranking.FCBF{}}, nil
	case "TPE(ReliefF)":
		return topK{name, ranking.ReliefF{}}, nil
	case "TPE(MCFS)":
		return topK{name, ranking.MCFS{}}, nil
	default:
		return nil, fmt.Errorf("core: unknown strategy %q", name)
	}
}

// All returns the 16 strategies of the benchmark.
func All() []Strategy {
	out := make([]Strategy, 0, len(StrategyNames))
	for _, n := range StrategyNames {
		s, err := New(n)
		if err != nil {
			panic(err) // static list; cannot fail
		}
		out = append(out, s)
	}
	return out
}

// simple adapts a search driver to the Strategy interface.
type simple struct {
	name string
	run  func(ev *Evaluator, rng *xrand.RNG) error
}

func (s simple) Name() string { return s.name }

func (s simple) Run(ev *Evaluator, rng *xrand.RNG) error { return s.run(ev, rng) }

// originalFeatures is the no-selection baseline: it evaluates the complete
// feature set once.
type originalFeatures struct{}

func (originalFeatures) Name() string { return OriginalFeaturesName }

func (originalFeatures) Run(ev *Evaluator, _ *xrand.RNG) error {
	mask := make([]bool, ev.NumFeatures())
	for j := range mask {
		mask[j] = true
	}
	_, _, err := ev.Evaluate(mask)
	if errors.Is(err, budget.ErrExhausted) {
		return nil
	}
	return err
}

// topK is a ranking-based strategy: compute the ranking once (charging its
// nominal cost), then let TPE optimize the cut point k (§4.2).
type topK struct {
	name   string
	ranker ranking.Ranker
}

func (s topK) Name() string { return s.name }

func (s topK) Run(ev *Evaluator, rng *xrand.RNG) error {
	if err := ev.ChargeRanking(s.ranker.Family()); err != nil {
		if errors.Is(err, budget.ErrExhausted) {
			return nil // ranking alone exceeded the budget (Figure 4 regime)
		}
		return err
	}
	// Split unconditionally so the parent stream advances identically whether
	// the ranking is computed or replayed from the durable tier.
	rankRNG := rng.Split()
	scores, _, hit := ev.sharedRanking(nil, string(s.ranker.Family()))
	if !hit {
		var err error
		scores, err = ev.computeRanking(s.ranker, ev.Scenario().Split.Train, rankRNG)
		if err != nil {
			return err
		}
		ev.storeRanking(nil, string(s.ranker.Family()), scores, false)
	}
	order := argsortDesc(scores)
	return search.TPETopK(ev, order, search.TPEConfig{}, rng)
}

func argsortDesc(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort keeps it dependency-free and stable (small p).
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && scores[idx[j]] > scores[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// rfeStrategy is recursive feature elimination guided by the scenario
// model's importance scores, with the permutation fallback (and its runtime
// overhead) for NB.
type rfeStrategy struct{}

func (rfeStrategy) Name() string { return "RFE(Model)" }

func (rfeStrategy) Run(ev *Evaluator, rng *xrand.RNG) error {
	// Like the other backward eliminations, RFE must evaluate large subsets
	// on its way down and cannot benefit from feature-cap pruning (§6.3).
	ev.SetPruning(false)
	defer ev.SetPruning(true)
	scn := ev.Scenario()
	imp := &ranking.ModelImportance{Spec: model.Spec{Kind: scn.ModelKind}}
	full := ev.NumFeatures()
	rank := func(mask []bool) ([]float64, error) {
		sel := selected(mask)
		if err := ev.ChargeTraining(len(sel)); err != nil {
			return nil, err
		}
		// Split unconditionally so the parent stream advances identically
		// whether the ranking is computed or replayed from the durable tier.
		rankRNG := rng.Split()
		family := string(imp.Family())
		scores, usedPerm, hit := ev.sharedRanking(mask, family)
		if !hit {
			// RFE ranks the subset it just evaluated, so the evaluator's
			// selection cache serves the feature-selected view without a copy.
			sub := ev.TrainView(mask, sel)
			var err error
			scores, err = ev.computeRanking(imp, sub, rankRNG)
			if err != nil {
				return nil, err
			}
			usedPerm = imp.UsedPermutation
			ev.storeRanking(mask, family, scores, usedPerm)
		}
		if usedPerm {
			// The permutation fallback's budget surcharge replays on a
			// durable hit exactly as it was charged on the original run.
			if err := ev.ChargePermutationOverhead(len(sel), ranking.PermutationRepeats); err != nil {
				return nil, err
			}
		}
		out := make([]float64, full)
		for k, j := range sel {
			out[j] = scores[k]
		}
		return out, nil
	}
	return search.RFE(ev, rank)
}

// RunResult summarizes one strategy run on one scenario.
type RunResult struct {
	// Strategy is the strategy name.
	Strategy string
	// Satisfied reports whether a test-confirmed satisfying subset exists.
	Satisfied bool
	// Features lists the solution's selected feature indices (nil if none).
	Features []int
	// ValScores / TestScores are the solution's scores (zero if none).
	ValScores, TestScores constraint.Scores
	// CostAtSolution is the budget spent when the solution was found; for
	// the paper's Fastest metric.
	CostAtSolution float64
	// TotalCost is the budget spent by the whole run.
	TotalCost float64
	// Evaluations counts distinct trained subsets.
	Evaluations int
	// BestValDistance / BestTestDistance are the closest-candidate
	// distances for the failure analysis (Table 4); zero when satisfied.
	BestValDistance, BestTestDistance float64
}

// RunStrategy executes one strategy on one scenario. It is the one runner
// behind every strategy run — Select, portfolios, benchmark pools and the
// paper's experiments — and each run gets the same fault-tolerance stack:
// cancellation (every budget charge checks ctx, so the search stops within
// one evaluation and the run returns ctx.Err(), not a partial result), panic
// isolation (any non-budget failure, a recovered panic included, comes back
// as a *StrategyError), and up to DefaultTransientRetries retries under
// PerturbSeed-derived seeds when the failure is classified IsTransient.
//
// A nil meter gives every attempt a fresh simulated budget of
// scn.Constraints.MaxSearchCost. A non-nil meter is the caller's — e.g. a
// wall-clock meter, where the search time constraint is literal seconds —
// and every attempt charges it, so a retry spends only what is left and the
// result's costs read it. memo, when non-nil, shares trained subsets across
// runs of the scenario; its key pins the seed, so a retried attempt never
// reuses entries trained under the original seed. maxEvals, when positive,
// bounds real compute (see NewEvaluator).
//
// Attempt 0 runs under seed itself, so a fault-free run is byte-identical
// with or without a memo or an observability runtime in ctx. With a runtime
// the run opens a strategy_run span under ctx's span and bumps the
// strategy.* counters.
func RunStrategy(ctx context.Context, s Strategy, scn *Scenario, meter budget.Meter, memo *SharedMemo, seed uint64, maxEvals int) (RunResult, error) {
	rt := obs.FromContext(ctx)
	if rt != nil {
		span := rt.Tracer().StartSpan(obs.SpanFromContext(ctx), "strategy_run",
			obs.Str("strategy", s.Name()),
			obs.Int("seed", int64(seed)),
			obs.Bool("shared_memo", memo != nil))
		ctx = obs.ContextWithSpan(ctx, span)
		rt.Metrics().Counter("strategy.runs").Inc()
	}
	var err error
	for attempt := 0; attempt <= DefaultTransientRetries; attempt++ {
		var res RunResult
		res, err = runOnce(ctx, s, scn, meter, memo, PerturbSeed(seed, attempt), maxEvals)
		if err == nil {
			finishStrategyObs(rt, ctx, s.Name(), res, nil)
			return res, nil
		}
		if !IsTransient(err) {
			break
		}
		if rt != nil && attempt < DefaultTransientRetries {
			rt.Metrics().Counter("strategy.retries").Inc()
			rt.Tracer().Event(obs.SpanFromContext(ctx), "retry",
				obs.Int("attempt", int64(attempt+1)),
				obs.Str("error", err.Error()))
		}
	}
	finishStrategyObs(rt, ctx, s.Name(), RunResult{}, err)
	return RunResult{}, err
}

// runOnce is one attempt of RunStrategy: an evaluator over the attempt's
// meter (a fresh simulated budget when meter is nil), the shared memo, the
// observability hooks, and the panic-isolated strategy run.
func runOnce(ctx context.Context, s Strategy, scn *Scenario, meter budget.Meter, memo *SharedMemo, seed uint64, maxEvals int) (RunResult, error) {
	if err := ctx.Err(); err != nil {
		return RunResult{}, err
	}
	if meter == nil {
		meter = budget.NewSim(scn.Constraints.MaxSearchCost)
	}
	ev, err := NewEvaluator(scn, budget.WithContext(ctx, meter), seed, maxEvals)
	if err != nil {
		return RunResult{}, err
	}
	if memo != nil {
		ev.UseShared(memo)
	}
	ev.Observe(obs.FromContext(ctx), obs.SpanFromContext(ctx))
	err = runProtected(s, ev, xrand.NewStream(seed, 0x57a7))
	if cerr := ctx.Err(); cerr != nil {
		return RunResult{}, cerr
	}
	if err != nil && !errors.Is(err, budget.ErrExhausted) {
		var se *StrategyError
		if errors.As(err, &se) {
			return RunResult{}, err
		}
		return RunResult{}, &StrategyError{Strategy: s.Name(), Cause: err}
	}
	return resultOf(ev, s.Name()), nil
}

// resultOf assembles the result of the search ev ran, reported under name:
// the confirmed solution if there is one, else the closest candidate's
// distances for the failure analysis (Table 4). TotalCost reads ev's meter
// before the best candidate's test confirmation, which may still charge.
func resultOf(ev *Evaluator, name string) RunResult {
	res := RunResult{
		Strategy:    name,
		TotalCost:   ev.meter.Spent(),
		Evaluations: ev.Evaluations(),
	}
	if sol := ev.Solution(); sol != nil {
		res.Satisfied = true
		res.Features = sol.Features()
		res.ValScores = sol.Val
		res.TestScores = sol.Test
		res.CostAtSolution = sol.SpentAt
		return res
	}
	cs := ev.scn.Constraints
	if best := ev.Best(); best != nil {
		res.BestValDistance = best.Distance
		if testScores, err := ev.EvaluateOnTest(best); err == nil {
			res.BestTestDistance = cs.Distance(testScores)
		}
		res.ValScores = best.Val
		res.TestScores = best.Test
	} else {
		// Nothing was ever evaluated (e.g. the ranking alone blew the
		// budget): report the maximal distance of the original feature set
		// convention — distance to every active threshold from zero scores.
		res.BestValDistance = cs.Distance(constraint.Scores{FeatureFrac: 0})
		res.BestTestDistance = res.BestValDistance
	}
	return res
}
