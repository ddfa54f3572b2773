// Package obs is the zero-dependency observability layer of the DFS system:
// a span-style tracer emitting JSONL via a pluggable Sink, a registry of
// atomic counters / gauges / histograms with a test-friendly Snapshot, and a
// debug HTTP listener exposing /debug/pprof and /metrics. A run's progress
// is read off the registry's pool.* counters; nothing counts it twice.
//
// Everything is nil-safe by design: a nil *Runtime (and nil components
// reached through it) turns every call into a no-op, so instrumented hot
// paths — the evaluator, the shared memo, the pool scheduler — pay exactly
// one pointer comparison when observability is off. The disabled path is
// guaranteed allocation-free (see TestDisabledPathAllocationFree and
// BenchmarkNoopOverhead).
//
// Observability flows through context.Context: callers build a Runtime,
// inject it with NewContext, and every context-aware entry point
// (core.RunStrategy, bench.BuildPoolResumed, dfs.SelectContext,
// dfs.RunPortfolioContext) picks it up with FromContext. Span parentage
// flows the same way via ContextWithSpan / SpanFromContext, so the trace of
// a pool run reconstructs the full tree: pool → scenario → strategy run →
// evaluation events.
package obs

import "context"

// Runtime bundles the observability components of one run. Components may
// individually be nil (e.g. metrics without tracing); every accessor is safe
// on a nil receiver.
type Runtime struct {
	tracer  *Tracer
	metrics *Registry
}

// Option customizes New.
type Option func(*Runtime)

// WithTracer attaches a span tracer (nil by default: metrics without trace
// emission).
func WithTracer(t *Tracer) Option { return func(rt *Runtime) { rt.tracer = t } }

// New returns a Runtime with a fresh metrics registry; add WithTracer to
// also record spans.
func New(opts ...Option) *Runtime {
	rt := &Runtime{metrics: NewRegistry()}
	for _, o := range opts {
		o(rt)
	}
	return rt
}

// Tracer returns the span tracer (nil when absent or rt is nil).
func (rt *Runtime) Tracer() *Tracer {
	if rt == nil {
		return nil
	}
	return rt.tracer
}

// Metrics returns the metrics registry (nil when rt is nil).
func (rt *Runtime) Metrics() *Registry {
	if rt == nil {
		return nil
	}
	return rt.metrics
}

type ctxKey struct{}

type spanKey struct{}

// NewContext injects the runtime into ctx; FromContext recovers it.
func NewContext(ctx context.Context, rt *Runtime) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rt)
}

// FromContext returns the runtime injected with NewContext, or nil.
func FromContext(ctx context.Context) *Runtime {
	if ctx == nil {
		return nil
	}
	rt, _ := ctx.Value(ctxKey{}).(*Runtime)
	return rt
}

// ContextWithSpan records the current span so callees can parent theirs
// under it.
func ContextWithSpan(ctx context.Context, id SpanID) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

// SpanFromContext returns the current span (0 when none).
func SpanFromContext(ctx context.Context) SpanID {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(spanKey{}).(SpanID)
	return id
}
