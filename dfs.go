// Package dfs is Declarative Feature Selection: a model-agnostic way to
// enforce user-specified constraints — accuracy, fairness (equal
// opportunity), differential privacy, safety against adversarial examples,
// feature-set size, and search time — on machine-learning systems by
// selecting the features the downstream model is allowed to see.
//
// It is a from-scratch Go reproduction of "Enforcing Constraints for Machine
// Learning Systems via Declarative Feature Selection: An Experimental Study"
// (Neutatz, Biessmann, Abedjan — SIGMOD 2021): the 16 feature-selection
// strategies of the study, the three benchmark classifiers (logistic
// regression, Gaussian naive Bayes, CART decision trees) plus a linear SVM,
// differentially private model variants, a HopSkipJump-style evasion attack
// for the safety metric, and the meta-learning optimizer that picks the most
// promising strategy for a scenario.
//
// # Quickstart
//
//	d, _ := dfs.GenerateBuiltin("COMPAS", 42)
//	sel, err := dfs.Select(d, dfs.LR, dfs.Constraints{
//		MinF1:         0.65,
//		MinEO:         0.90,   // equal opportunity ≥ 0.90
//		MaxSearchCost: 1000,   // search budget in cost units
//		MaxFeatureFrac: 1,
//	})
//	if err == nil && sel.Satisfied {
//		fmt.Println("use features:", sel.FeatureNames)
//	}
//
// See the examples/ directory for fairness, privacy, safety, and portfolio
// walkthroughs, and cmd/benchmark for regenerating the paper's tables.
package dfs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/metrics"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/synth"
)

// Constraints declares what the selected feature set must guarantee. Zero
// values disable the optional constraints; MinF1 and MaxSearchCost are
// mandatory. MaxSearchCost is expressed in deterministic cost units (one
// unit ≈ one second of a 2.6 GHz core; see DESIGN.md §4).
type Constraints = constraint.Set

// Scores are the measured metrics of a feature subset.
type Scores = constraint.Scores

// Dataset is a preprocessed, model-ready dataset: features scaled to [0, 1],
// a binary target, and a binary sensitive attribute for fairness metrics.
type Dataset = dataset.Dataset

// Table is a raw dataset with typed (numeric/categorical) columns and
// missing values, as loaded from CSV or produced by a generator.
type Table = dataset.Table

// ModelKind selects the classification model family.
type ModelKind = model.Kind

// Model families.
const (
	// LR is l2-regularized logistic regression.
	LR = model.KindLR
	// NB is Gaussian naive Bayes.
	NB = model.KindNB
	// DT is a CART decision tree.
	DT = model.KindDT
	// SVM is a linear support vector machine.
	SVM = model.KindSVM
)

// Strategies lists the 16 feature-selection strategy names of the study, in
// the paper's Table 3 order. Any of them can be passed to WithStrategy.
func Strategies() []string {
	return append([]string(nil), core.StrategyNames...)
}

// BuiltinDatasets lists the 19 synthetic benchmark dataset profiles
// mirroring the paper's Table 2.
func BuiltinDatasets() []string { return synth.Names() }

// GenerateBuiltin materializes a built-in dataset profile; the same
// (name, seed) pair always produces identical data.
func GenerateBuiltin(name string, seed uint64) (*Dataset, error) {
	p, err := synth.ByName(name)
	if err != nil {
		return nil, err
	}
	return synth.GenerateDataset(&p, seed)
}

// GenerateBuiltinTable materializes a built-in profile as a raw table
// (typed columns, missing values) before preprocessing — e.g. to export
// with WriteCSV.
func GenerateBuiltinTable(name string, seed uint64) (*Table, error) {
	p, err := synth.ByName(name)
	if err != nil {
		return nil, err
	}
	return synth.Generate(&p, seed)
}

// LoadCSV reads a raw table in the package's self-describing CSV layout
// (feature headers "name:num" or "name:cat:<cardinality>", then
// "__target__" and "__sensitive__" columns; empty cells are missing values).
func LoadCSV(r io.Reader, name string) (*Table, error) {
	return dataset.ReadCSV(r, name)
}

// WriteCSV serializes a raw table in the layout LoadCSV reads.
func WriteCSV(w io.Writer, t *Table) error { return dataset.WriteCSV(w, t) }

// Preprocess applies the study's standard pipeline — mean imputation and
// min-max scaling for numeric columns, one-hot encoding for categorical
// columns — producing a model-ready dataset.
func Preprocess(t *Table) (*Dataset, error) { return dataset.Preprocess(t) }

// DatasetStats summarizes a dataset (class balance, group base-rate gap,
// degenerate features) — the numbers to check before declaring constraints.
type DatasetStats = dataset.Stats

// Describe computes summary statistics of a model-ready dataset.
func Describe(d *Dataset) DatasetStats { return dataset.Describe(d) }

// Selection is the outcome of a DFS run.
type Selection struct {
	// Satisfied reports whether a feature set meeting every constraint on
	// both validation and test data was found.
	Satisfied bool
	// Strategy is the strategy that produced the result.
	Strategy string
	// Model is the model family the selection was confirmed under; set by
	// SelectAuto (empty for the single-model entry points, where the caller
	// already knows it).
	Model ModelKind
	// Features are the selected feature column indices (nil if none).
	Features []int
	// FeatureNames are the corresponding column names.
	FeatureNames []string
	// Validation and Test hold the confirmed scores of the selection.
	Validation, Test Scores
	// Cost is the search cost spent until the solution (or in total when
	// unsatisfied), in the same units as Constraints.MaxSearchCost.
	Cost float64
	// BestDistance is the closest any candidate came to satisfying the
	// constraints (Eq. 1), when Satisfied is false.
	BestDistance float64
	// Report holds the per-strategy outcomes of a portfolio run, in the
	// requested strategy order — including failed members, which no longer
	// sink the portfolio (see RunPortfolioContext). Nil for single-strategy
	// runs.
	Report []StrategyReport
}

// StrategyStatus classifies one portfolio member's outcome.
type StrategyStatus string

// Portfolio member outcomes.
const (
	// StrategySatisfied means the member confirmed a satisfying selection.
	StrategySatisfied StrategyStatus = "satisfied"
	// StrategyUnsatisfied means the member completed without a satisfying
	// selection (budget exhausted or search space exhausted).
	StrategyUnsatisfied StrategyStatus = "unsatisfied"
	// StrategyFailed means the member died — panic, corrupted data, or a
	// transient failure that outlived its retries — and was excluded from
	// the portfolio decision.
	StrategyFailed StrategyStatus = "failed"
)

// StrategyReport is one portfolio member's outcome: enough to alert on
// partial degradation even when the portfolio as a whole succeeded.
type StrategyReport struct {
	// Strategy is the member's strategy name.
	Strategy string
	// Status classifies the outcome.
	Status StrategyStatus
	// Cost is the search cost the member spent (cost at solution when
	// satisfied, total otherwise; zero when the member failed before
	// running).
	Cost float64
	// Err is the failure when Status is StrategyFailed; errors.As with a
	// *StrategyError target recovers the attribution (and, for isolated
	// panics, the stack).
	Err error
}

// StrategyError is the typed failure of one strategy run: the strategy name,
// the cause, and — for panics recovered by the execution layer — the stack.
type StrategyError = core.StrategyError

type options struct {
	strategy  string
	hpo       bool
	utility   bool
	seed      uint64
	maxEvals  int
	wallClock time.Duration
	custom    []core.CustomConstraint
	noShare   bool
	evalStore string
}

// Option customizes Select and RunPortfolio.
type Option func(*options)

// WithStrategy forces a specific strategy (see Strategies for names). The
// default is SFFS(NR), the strategy with the best overall coverage across
// constraint types in the study (Table 5).
func WithStrategy(name string) Option { return func(o *options) { o.strategy = name } }

// WithHPO enables the study's hyperparameter grid search per feature subset.
func WithHPO() Option { return func(o *options) { o.hpo = true } }

// WithUtilityMode keeps searching after the constraints are met, maximizing
// F1 subject to them (Eq. 2), until the search budget is spent.
func WithUtilityMode() Option { return func(o *options) { o.utility = true } }

// WithSeed fixes all randomness (data splitting, search, attacks, DP noise).
func WithSeed(seed uint64) Option { return func(o *options) { o.seed = seed } }

// WithMaxEvaluations bounds the number of trained feature subsets,
// independent of the cost budget.
func WithMaxEvaluations(n int) Option { return func(o *options) { o.maxEvals = n } }

// WithWallClock replaces the simulated cost budget with a literal wall-clock
// deadline: the search stops after d of real time, whatever
// Constraints.MaxSearchCost says (it must still be positive). A transient
// retry spends what is left of the deadline, and a portfolio's members,
// which run concurrently, share it. Costs are then reported in seconds. Use
// this for production deployments; the simulated meter remains the right
// choice for reproducible experiments.
func WithWallClock(d time.Duration) Option { return func(o *options) { o.wallClock = d } }

// WithoutEvaluationSharing disables the cross-member trained-subset memo in
// RunPortfolio: every member retrains every subset privately, as if it ran
// alone. The selection is identical either way — sharing only skips redundant
// physical training while each member's budget meter still pays the full
// simulated cost — so this is an escape hatch for debugging and verification,
// not a semantic knob.
func WithoutEvaluationSharing() Option { return func(o *options) { o.noShare = true } }

// WithEvalStore shares trained-subset evaluations durably across process
// lifetimes: every physical training is appended to a crash-safe,
// content-addressed store under dir, and any later run — same process or not
// — that evaluates the same subset under the same dataset, model,
// constraints, and seed replays the stored scores bit-identically instead of
// retraining. Multiple processes may point at the same directory
// concurrently; each appends to its own locked segment. The store is an
// optimization only: selections are byte-identical with or without it, and
// runtime write failures degrade to plain retraining (a dir that cannot be
// opened, however, fails the call — the caller asked for durability it can't
// have). Ignored under WithoutEvaluationSharing.
func WithEvalStore(dir string) Option { return func(o *options) { o.evalStore = dir } }

// CustomMetric scores one evaluated feature subset from the model's
// predictions; it must return a value in [0, 1] and be deterministic. The
// built-in DemographicParity and EqualizedOdds helpers are ready-made
// CustomMetrics.
type CustomMetric func(yTrue, yPred, sensitive []int) float64

// WithCustomConstraint declares an additional minimum-threshold constraint
// over any user-defined metric (the paper's §3 framework claim: any numeric
// score over the dataset and model can be enforced). The metric joins the
// Eq. 1 distance objective and the validation-then-test confirmation like
// every built-in constraint.
func WithCustomConstraint(name string, min float64, metric CustomMetric) Option {
	return func(o *options) {
		o.custom = append(o.custom, core.CustomConstraint{
			Name: name,
			Min:  min,
			Metric: func(in core.MetricInput) float64 {
				return metric(in.YTrue, in.YPred, in.Sensitive)
			},
		})
	}
}

// DemographicParity is a ready-made CustomMetric:
// 1 − |P(ŷ=1 | minority) − P(ŷ=1 | majority)|.
func DemographicParity(_, yPred, sensitive []int) float64 {
	return metrics.DemographicParity(yPred, sensitive)
}

// EqualizedOdds is a ready-made CustomMetric: 1 − max(|ΔTPR|, |ΔFPR|)
// between the protected groups (stricter than equal opportunity).
func EqualizedOdds(yTrue, yPred, sensitive []int) float64 {
	return metrics.EqualizedOdds(yTrue, yPred, sensitive)
}

// meter returns the budget meter of a run: nil, so each attempt gets a fresh
// simulated budget, or one wall-clock deadline under WithWallClock. A
// WallMeter never changes after it is created, so portfolio members can
// share it.
func (o options) meter() budget.Meter {
	if o.wallClock > 0 {
		return budget.NewWall(o.wallClock)
	}
	return nil
}

func buildOptions(opts []Option) options {
	o := options{strategy: "SFFS(NR)", seed: 1}
	for _, fn := range opts {
		fn(&o)
	}
	return o
}

// newStrategy builds a strategy by name; tests swap it to inject faults into
// otherwise-opaque portfolio members.
var newStrategy = core.New

// Select searches for one feature subset of d that satisfies cs when
// training the given model family, following the DFS workflow of the paper:
// stratified 3:1:1 split, wrapper evaluation with the Eq. 1 distance
// objective, validation-then-test confirmation.
func Select(d *Dataset, kind ModelKind, cs Constraints, opts ...Option) (*Selection, error) {
	return SelectContext(context.Background(), d, kind, cs, opts...)
}

// SelectContext is Select with cancellation: the search stops at the next
// budget charge point once ctx is done (well under one subset evaluation)
// and returns ctx.Err(). The run is panic-isolated — a dying strategy
// surfaces as a *StrategyError, never a process crash — and failures
// classified transient (degenerate resampled splits, singular-matrix
// rankings) are retried a bounded number of times under deterministically
// perturbed seeds. With no faults injected and the same seed, the result is
// identical to Select's.
func SelectContext(ctx context.Context, d *Dataset, kind ModelKind, cs Constraints, opts ...Option) (*Selection, error) {
	o := buildOptions(opts)
	ctx, end := apiSpan(ctx, "select",
		obs.Str("strategy", o.strategy), obs.Str("model", string(kind)))
	scn, err := newScenario(d, kind, cs, o)
	if err != nil {
		end(nil, err)
		return nil, err
	}
	s, err := newStrategy(o.strategy)
	if err != nil {
		end(nil, err)
		return nil, err
	}
	var memo *core.SharedMemo
	if o.evalStore != "" && !o.noShare {
		memo = core.NewSharedMemo()
	}
	closeStore, err := attachStore(ctx, o, scn, memo)
	if err != nil {
		end(nil, err)
		return nil, err
	}
	res, err := core.RunStrategy(ctx, s, scn, o.meter(), memo, o.seed, o.maxEvals)
	// The store is a cache: a failed flush at close only costs future warmth,
	// never this run's result.
	_ = closeStore()
	if err != nil {
		end(nil, err)
		return nil, err
	}
	sel := toSelection(d, res)
	end(sel, nil)
	return sel, nil
}

// attachStore opens the durable evaluation store declared by WithEvalStore
// and attaches it to memo under scn's content hash. The returned closer
// flushes and releases the store; both it and the open are no-ops when no
// store is configured or memo is nil (WithoutEvaluationSharing).
func attachStore(ctx context.Context, o options, scn *core.Scenario, memo *core.SharedMemo) (func() error, error) {
	if o.evalStore == "" || memo == nil {
		return func() error { return nil }, nil
	}
	st, err := evalstore.Open(o.evalStore, evalstore.Options{Metrics: obs.FromContext(ctx).Metrics()})
	if err != nil {
		return nil, err
	}
	memo.AttachDurable(st, scn.ContentHash())
	return st.Close, nil
}

// apiSpan opens a span for one public API call and returns the span-carrying
// context plus a closer that records the outcome. Without a runtime in ctx
// both are free: the closer is a shared no-op and ctx is returned untouched.
func apiSpan(ctx context.Context, name string, attrs ...obs.Attr) (context.Context, func(sel *Selection, err error)) {
	rt := obs.FromContext(ctx)
	if rt == nil {
		return ctx, func(*Selection, error) {}
	}
	span := rt.Tracer().StartSpan(obs.SpanFromContext(ctx), name, attrs...)
	return obs.ContextWithSpan(ctx, span), func(sel *Selection, err error) {
		switch {
		case err != nil:
			rt.Tracer().EndSpan(span,
				obs.Str("status", "error"),
				obs.Str("category", string(core.Classify(err))),
				obs.Str("error", err.Error()))
		case sel != nil && sel.Satisfied:
			rt.Tracer().EndSpan(span,
				obs.Str("status", "satisfied"),
				obs.Str("strategy", sel.Strategy),
				obs.Float("cost", sel.Cost))
		default:
			rt.Tracer().EndSpan(span, obs.Str("status", "unsatisfied"))
		}
	}
}

// RunPortfolio runs several strategies on the same scenario — each with its
// own copy of the declared budget, mirroring the embarrassingly parallel
// execution of §6.5 — and returns the fastest satisfying selection, or, when
// none satisfies, the selection that came closest. Strategies execute
// concurrently (one goroutine each); results are deterministic regardless
// of scheduling. With an empty strategy list it runs the study's best top-5
// coverage portfolio (Table 8).
func RunPortfolio(d *Dataset, kind ModelKind, cs Constraints, strategies []string, opts ...Option) (*Selection, error) {
	return RunPortfolioContext(context.Background(), d, kind, cs, strategies, opts...)
}

// RunPortfolioContext is RunPortfolio with cancellation and graceful
// degradation. Each member runs isolated: a panicking or erroring strategy
// is recorded as failed in Selection.Report while the survivors still
// compete, so the portfolio returns the best selection among surviving
// members and errors only when every member failed (a joined error naming
// each strategy). Cancelling ctx stops all members at their next charge
// point and returns ctx.Err().
func RunPortfolioContext(ctx context.Context, d *Dataset, kind ModelKind, cs Constraints, strategies []string, opts ...Option) (*Selection, error) {
	if len(strategies) == 0 {
		strategies = []string{"TPE(FCBF)", "SFFS(NR)", "TPE(NR)", "TPE(MIM)", "SA(NR)"}
	}
	o := buildOptions(opts)
	ctx, end := apiSpan(ctx, "portfolio",
		obs.Int("members", int64(len(strategies))), obs.Str("model", string(kind)))
	// One scenario serves every member: the split, constraints, and custom
	// metrics are identical across strategies, and runs never mutate the
	// scenario (per-run state lives in each member's evaluator). Sharing it
	// is what lets the trained-subset memo deduplicate across members.
	scn, err := newScenario(d, kind, cs, o)
	if err != nil {
		end(nil, err)
		return nil, err
	}
	var memo *core.SharedMemo
	if !o.noShare {
		memo = core.NewSharedMemo()
	}
	closeStore, err := attachStore(ctx, o, scn, memo)
	if err != nil {
		end(nil, err)
		return nil, err
	}
	defer func() { _ = closeStore() }()

	type outcome struct {
		sel *Selection
		err error
	}
	outcomes := make([]outcome, len(strategies))
	meter := o.meter()
	var wg sync.WaitGroup
	for i, name := range strategies {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			s, err := newStrategy(name)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			res, err := core.RunStrategy(ctx, s, scn, meter, memo, o.seed, o.maxEvals)
			if err != nil {
				outcomes[i] = outcome{err: err}
				return
			}
			outcomes[i] = outcome{sel: toSelection(d, res)}
		}(i, name)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		end(nil, err)
		return nil, err
	}

	rt := obs.FromContext(ctx)
	report := make([]StrategyReport, len(strategies))
	var best *Selection
	var failures []error
	for i, out := range outcomes {
		r := StrategyReport{Strategy: strategies[i]}
		if out.err != nil {
			r.Status = StrategyFailed
			r.Err = out.err
			failures = append(failures, fmt.Errorf("%s: %w", strategies[i], out.err))
			if rt != nil {
				rt.Metrics().Counter("portfolio.degraded").Inc()
				rt.Tracer().Event(obs.SpanFromContext(ctx), "degradation",
					obs.Str("strategy", strategies[i]),
					obs.Str("category", string(core.Classify(out.err))))
			}
		} else {
			r.Cost = out.sel.Cost
			if out.sel.Satisfied {
				r.Status = StrategySatisfied
			} else {
				r.Status = StrategyUnsatisfied
			}
			if best == nil || betterSelection(out.sel, best) {
				best = out.sel
			}
		}
		report[i] = r
	}
	if best == nil {
		err := fmt.Errorf("dfs: all %d portfolio strategies failed: %w",
			len(strategies), errors.Join(failures...))
		end(nil, err)
		return nil, err
	}
	best.Report = report
	end(best, nil)
	return best, nil
}

// betterSelection prefers satisfied-and-faster, then lower distance.
func betterSelection(a, b *Selection) bool {
	if a.Satisfied != b.Satisfied {
		return a.Satisfied
	}
	if a.Satisfied {
		return a.Cost < b.Cost
	}
	return a.BestDistance < b.BestDistance
}

func newScenario(d *Dataset, kind ModelKind, cs Constraints, o options) (*core.Scenario, error) {
	mode := core.ModeSatisfy
	if o.utility {
		mode = core.ModeMaximizeUtility
	}
	scn, err := core.NewScenario(d, kind, cs, o.hpo, mode, o.seed)
	if err != nil {
		return nil, err
	}
	scn.Custom = o.custom
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	return scn, nil
}

func toSelection(d *Dataset, res core.RunResult) *Selection {
	sel := &Selection{
		Satisfied:    res.Satisfied,
		Strategy:     res.Strategy,
		Features:     res.Features,
		Validation:   res.ValScores,
		Test:         res.TestScores,
		BestDistance: res.BestValDistance,
	}
	if res.Satisfied {
		sel.Cost = res.CostAtSolution
	} else {
		sel.Cost = res.TotalCost
	}
	for _, j := range res.Features {
		if j < len(d.FeatureNames) {
			sel.FeatureNames = append(sel.FeatureNames, d.FeatureNames[j])
		} else {
			sel.FeatureNames = append(sel.FeatureNames, fmt.Sprintf("f%d", j))
		}
	}
	return sel
}

// CheckTransfer re-evaluates a selection's feature set under another model
// family (the reusability experiment of Table 7): it retrains the target
// model on the same features and reports the achieved test scores, so the
// caller can verify which constraints still hold after a model swap.
func CheckTransfer(d *Dataset, sel *Selection, target ModelKind, cs Constraints, opts ...Option) (Scores, error) {
	if sel == nil || len(sel.Features) == 0 {
		return Scores{}, fmt.Errorf("dfs: selection has no features to transfer")
	}
	o := buildOptions(opts)
	scn, err := newScenario(d, target, cs, o)
	if err != nil {
		return Scores{}, err
	}
	ev, err := core.NewEvaluator(scn, unlimitedMeter{}, o.seed, 0)
	if err != nil {
		return Scores{}, err
	}
	mask := make([]bool, d.Features())
	for _, j := range sel.Features {
		if j < 0 || j >= len(mask) {
			return Scores{}, fmt.Errorf("dfs: feature index %d out of range", j)
		}
		mask[j] = true
	}
	return ev.EvaluateOnTest(&core.Candidate{Mask: mask})
}

// unlimitedMeter satisfies budget accounting for post-hoc evaluations.
type unlimitedMeter struct{}

func (unlimitedMeter) Charge(float64) error { return nil }
func (unlimitedMeter) Spent() float64       { return 0 }
func (unlimitedMeter) Limit() float64       { return 0 }
func (unlimitedMeter) Exhausted() bool      { return false }
