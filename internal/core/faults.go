package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// StrategyError is the typed failure of one strategy run: instead of
// crashing the process (panic) or surfacing an anonymous error, every
// non-budget failure of a strategy is reported as a *StrategyError so
// callers — portfolios, benchmark pools, serving layers — can attribute the
// failure, decide whether to retry, and keep the surviving runs.
type StrategyError struct {
	// Strategy is the name of the failed strategy.
	Strategy string
	// Cause is the underlying error; for recovered panics it is a
	// "panic: ..." error wrapping nothing.
	Cause error
	// Stack is the goroutine stack at the panic site; empty for ordinary
	// errors.
	Stack string
}

func (e *StrategyError) Error() string {
	return fmt.Sprintf("core: strategy %s failed: %v", e.Strategy, e.Cause)
}

func (e *StrategyError) Unwrap() error { return e.Cause }

// Panicked reports whether the failure was a recovered panic.
func (e *StrategyError) Panicked() bool { return e.Stack != "" }

// transient is the classification interface for retryable failures: an error
// anywhere in the chain implementing it decides. Degenerate stratified
// splits (dataset.DegenerateSplitError) and singular-matrix rankings
// (ranking.EmbeddingError) are the built-in transient failures; any package
// can mark its own errors without importing core.
type transient interface{ Transient() bool }

// IsTransient reports whether err is classified as transient — worth a
// bounded retry under a perturbed seed. Panics and budget exhaustion are
// never transient.
func IsTransient(err error) bool {
	var t transient
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// DefaultTransientRetries is how many perturbed-seed retries RunStrategy
// grants a transiently failing strategy.
const DefaultTransientRetries = 2

// FailureCategory is the shared failure taxonomy of a strategy run. The same
// vocabulary flows into bench.Record.FailureKinds, the obs failure counters,
// and trace span attributes, so a failure looks identical everywhere it is
// reported.
type FailureCategory string

const (
	// FailurePanic is a recovered strategy panic (StrategyError.Panicked).
	FailurePanic FailureCategory = "panic"
	// FailureTimeout is a context cancellation or deadline expiry.
	FailureTimeout FailureCategory = "timeout"
	// FailureTransientExhausted is a transient fault that survived every
	// perturbed-seed retry.
	FailureTransientExhausted FailureCategory = "transient-exhausted"
	// FailureConstraintViolation is a malformed constraint declaration
	// (constraint.ValidationError).
	FailureConstraintViolation FailureCategory = "constraint-violation"
	// FailureInternal is every other failure.
	FailureInternal FailureCategory = "internal"
)

// Classify maps a strategy-run error onto the failure taxonomy; nil maps to
// the empty category. Order matters: a panic stays a panic even if its
// message chain would match another class, and cancellation wins over
// transience because a retry loop cut short by ctx was not exhausted.
func Classify(err error) FailureCategory {
	if err == nil {
		return ""
	}
	var se *StrategyError
	if errors.As(err, &se) && se.Panicked() {
		return FailurePanic
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return FailureTimeout
	}
	if IsTransient(err) {
		return FailureTransientExhausted
	}
	var ve *constraint.ValidationError
	if errors.As(err, &ve) {
		return FailureConstraintViolation
	}
	return FailureInternal
}

// PerturbSeed derives the deterministic retry seed for an attempt. Attempt 0
// is the identity, so a fault-free run is byte-identical to a run that never
// retries; later attempts fold in a Weyl-sequence constant.
func PerturbSeed(seed uint64, attempt int) uint64 {
	if attempt <= 0 {
		return seed
	}
	return seed ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
}

// runProtected invokes s.Run with panic isolation: a panicking strategy
// becomes a *StrategyError carrying the stack instead of killing the process
// (and, in portfolio runs, the sibling strategies). RunStrategy and every
// RunSequence stage go through it.
func runProtected(s Strategy, ev *Evaluator, rng *xrand.RNG) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &StrategyError{
				Strategy: s.Name(),
				Cause:    fmt.Errorf("panic: %v", r),
				Stack:    string(debug.Stack()),
			}
		}
	}()
	return s.Run(ev, rng)
}

// finishStrategyObs closes the strategy_run span (the one carried by ctx)
// and bumps the per-strategy outcome counters. No-op without a runtime.
func finishStrategyObs(rt *obs.Runtime, ctx context.Context, name string, res RunResult, err error) {
	if rt == nil {
		return
	}
	m, tr, span := rt.Metrics(), rt.Tracer(), obs.SpanFromContext(ctx)
	switch {
	case err != nil:
		cat := Classify(err)
		m.Counter("strategy.failed." + name).Inc()
		m.Counter("failures." + string(cat)).Inc()
		tr.EndSpan(span,
			obs.Str("status", "failed"),
			obs.Str("category", string(cat)),
			obs.Str("error", err.Error()))
	case res.Satisfied:
		m.Counter("strategy.satisfied." + name).Inc()
		m.Histogram("run.cost").Observe(res.TotalCost)
		tr.EndSpan(span,
			obs.Str("status", "satisfied"),
			obs.Float("cost_at_solution", res.CostAtSolution),
			obs.Float("total_cost", res.TotalCost),
			obs.Int("evals", int64(res.Evaluations)))
	default:
		m.Counter("strategy.unsatisfied." + name).Inc()
		m.Histogram("run.cost").Observe(res.TotalCost)
		tr.EndSpan(span,
			obs.Str("status", "unsatisfied"),
			obs.Float("total_cost", res.TotalCost),
			obs.Int("evals", int64(res.Evaluations)),
			obs.Float("best_val_distance", res.BestValDistance))
	}
}
