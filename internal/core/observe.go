package core

import (
	"errors"
	"time"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/obs"
)

// evalObs carries the pre-resolved metric handles and trace identity of one
// instrumented strategy run. Handles are fetched once per evaluator so the
// enabled hot path touches only atomics; the disabled hot path is a single
// nil check on Evaluator.obsv (see the allocation guards in obs_test.go and
// the CI baseline tripwire in obs_guard_test.go).
type evalObs struct {
	tracer *obs.Tracer
	span   obs.SpanID

	trained  *obs.Counter // physical trainings (trainAndScore attempts)
	replayed *obs.Counter // evaluations served by the shared memo
	cached   *obs.Counter // intra-strategy cache hits
	pruned   *obs.Counter // evaluation-independent prunes (Table 1)

	memoLookups *obs.Counter
	memoHits    *obs.Counter
	memoMisses  *obs.Counter
	memoWaits   *obs.Counter // singleflight waits on another strategy's training

	// evalstore.* counters split decided memo acquires by tier when a
	// durable store is attached (memory → disk → train); waits are excluded,
	// so lookups == hits_mem + hits_disk + misses holds exactly.
	esLookups  *obs.Counter
	esHitsMem  *obs.Counter
	esHitsDisk *obs.Counter
	esMisses   *obs.Counter

	charges    *obs.Counter
	chargeCost *obs.Histogram
	trainTime  *obs.Histogram

	// metrics resolves rank.seconds.<family> when a ranking is computed:
	// once per ranking strategy and once per RFE step, off the evaluation
	// hot path.
	metrics *obs.Registry
}

func newEvalObs(rt *obs.Runtime, span obs.SpanID, kind string) *evalObs {
	m := rt.Metrics()
	return &evalObs{
		tracer:      rt.Tracer(),
		span:        span,
		trained:     m.Counter("evals.trained"),
		replayed:    m.Counter("evals.replayed"),
		cached:      m.Counter("evals.cached"),
		pruned:      m.Counter("evals.pruned"),
		memoLookups: m.Counter("memo.lookups"),
		memoHits:    m.Counter("memo.hits"),
		memoMisses:  m.Counter("memo.misses"),
		memoWaits:   m.Counter("memo.waits"),
		esLookups:   m.Counter("evalstore.lookups"),
		esHitsMem:   m.Counter("evalstore.hits_mem"),
		esHitsDisk:  m.Counter("evalstore.hits_disk"),
		esMisses:    m.Counter("evalstore.misses"),
		charges:     m.Counter("budget.charges"),
		chargeCost:  m.Histogram("budget.charge_cost"),
		trainTime:   m.Histogram("train.seconds." + kind),
		metrics:     m,
	}
}

// evalEvent emits the per-evaluation trace event shared by the trained and
// replayed paths. memoState is "off" (no shared memo), "miss" (owner
// training), or "hit" (memo-served); exactly one event is emitted per
// counted training or replay — including ones aborted by budget exhaustion —
// so trace-derived hit/miss counts always equal the Snapshot counters.
func (o *evalObs) evalEvent(memoState string, maskN int, cost float64, wall time.Duration, err error) {
	status := "ok"
	switch {
	case errors.Is(err, budget.ErrExhausted):
		status = "exhausted"
	case err != nil:
		status = "error"
	}
	o.tracer.Event(o.span, "eval",
		obs.Str("memo", memoState),
		obs.Int("mask_n", int64(maskN)),
		obs.Float("cost", cost),
		obs.Float("wall_s", wall.Seconds()),
		obs.Str("status", status))
}

// Observe attaches an observability runtime to the evaluator: evaluation,
// memo, and prune events parent under span, and the budget meter is wrapped
// so every charge is counted. A nil runtime is a no-op — the evaluator stays
// on the bare, allocation-free path.
func (ev *Evaluator) Observe(rt *obs.Runtime, span obs.SpanID) {
	if rt == nil {
		return
	}
	o := newEvalObs(rt, span, string(ev.scn.ModelKind))
	ev.obsv = o
	ev.meter = budget.Observed(ev.meter, func(cost float64) {
		o.charges.Inc()
		o.chargeCost.Observe(cost)
	})
}
