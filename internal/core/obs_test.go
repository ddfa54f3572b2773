package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
)

func TestClassify(t *testing.T) {
	valErr := constraint.Set{MinF1: 2, MaxSearchCost: 1}.Validate()
	if valErr == nil {
		t.Fatal("expected a validation error")
	}
	cases := []struct {
		name string
		err  error
		want FailureCategory
	}{
		{"nil", nil, ""},
		{"panic", &StrategyError{Strategy: "SA(NR)", Cause: errors.New("panic: boom"), Stack: "stack"}, FailurePanic},
		{"canceled", fmt.Errorf("run: %w", context.Canceled), FailureTimeout},
		{"deadline", context.DeadlineExceeded, FailureTimeout},
		{"transient", &StrategyError{Strategy: "SFS(NR)", Cause: transientErr{}}, FailureTransientExhausted},
		{"validation", fmt.Errorf("scenario: %w", valErr), FailureConstraintViolation},
		{"internal", &StrategyError{Strategy: "SFS(NR)", Cause: errors.New("corrupt")}, FailureInternal},
		// A panic wrapping a cancellation message is still a panic: the stack
		// is the primary evidence.
		{"panic-wins", &StrategyError{Cause: context.Canceled, Stack: "stack"}, FailurePanic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("%s: Classify = %q, want %q", c.name, got, c.want)
		}
	}
}

type transientErr struct{}

func (transientErr) Error() string   { return "degenerate split" }
func (transientErr) Transient() bool { return true }

// TestObservedRunMatchesBareRun is the observability ground rule: attaching
// a runtime changes what is recorded, never what is computed. It also checks
// the metric invariants for a single observed strategy run.
func TestObservedRunMatchesBareRun(t *testing.T) {
	cs := constraint.Set{MinF1: 0.55, MaxSearchCost: 800, MaxFeatureFrac: 1}
	seedScn := memoScenario(t, cs)
	s, err := New("SFS(NR)")
	if err != nil {
		t.Fatal(err)
	}
	bare, err := RunStrategy(context.Background(), s, seedScn, nil, nil, 11, 30)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rt := obs.New(obs.WithTracer(obs.NewWriterTracer(&buf)))
	ctx := obs.NewContext(context.Background(), rt)
	observed, err := RunStrategy(ctx, s, memoScenario(t, cs), nil, nil, 11, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, observed) {
		t.Fatalf("observation changed the run:\nbare     %+v\nobserved %+v", bare, observed)
	}

	snap := rt.Metrics().Snapshot()
	if got := snap.Counter("strategy.runs"); got != 1 {
		t.Fatalf("strategy.runs = %d, want 1", got)
	}
	trained := snap.Counter("evals.trained")
	if trained == 0 {
		t.Fatal("no trainings counted")
	}
	if int(trained) != observed.Evaluations {
		t.Fatalf("without a memo, trained (%d) must equal Evaluations (%d)", trained, observed.Evaluations)
	}
	if hist := snap.Histograms["train.seconds.LR"]; hist.Count != trained {
		t.Fatalf("train-time histogram count %d != trained %d", hist.Count, trained)
	}
	if snap.Counter("budget.charges") == 0 {
		t.Fatal("no budget charges observed")
	}
	if buf.Len() == 0 {
		t.Fatal("no trace emitted")
	}
}

// TestRankingTimeOnlyWhenComputed: an observed TPE(MCFS) run times the one
// ranking it computes into rank.seconds.mcfs, and a rerun that replays the
// ranking from a warm durable store records no sample.
func TestRankingTimeOnlyWhenComputed(t *testing.T) {
	scn := memoScenario(t, memoConstraintSets()["plain"])
	s, err := New("TPE(MCFS)")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	samples := func(tag string) int64 {
		store, err := evalstore.Open(dir, evalstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		memo := NewSharedMemo()
		memo.AttachDurable(store, scn.ContentHash())
		rt := obs.New()
		if _, err := RunStrategy(obs.NewContext(context.Background(), rt), s, scn, nil, memo, 11, 30); err != nil {
			t.Fatalf("%s run: %v", tag, err)
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return rt.Metrics().Snapshot().Histograms["rank.seconds.mcfs"].Count
	}
	if got := samples("cold"); got != 1 {
		t.Fatalf("cold run: rank.seconds.mcfs has %d samples, want 1", got)
	}
	if got := samples("warm"); got != 0 {
		t.Fatalf("warm run: rank.seconds.mcfs has %d samples, want 0", got)
	}
}

// TestDisabledPathAllocationFree pins the overhead contract of the tentpole:
// with no runtime attached (the default for every existing caller), the
// instrumented evaluation paths allocate nothing — the only cost is the nil
// check on Evaluator.obsv.
func TestDisabledPathAllocationFree(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), "LR", ModeSatisfy)
	ev, err := NewEvaluator(scn, budget.NewSim(scn.Constraints.MaxSearchCost), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]bool, ev.NumFeatures())
	mask[0], mask[1] = true, true
	if _, _, err := ev.Evaluate(mask); err != nil {
		t.Fatal(err)
	}
	// The steady-state hot path: a cached revisit of an evaluated subset.
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ev.Evaluate(mask); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("disabled-path cached Evaluate allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledCachedPathAllocationFree: even with metrics on, the cached
// revisit path only touches pre-resolved atomic counters.
func TestEnabledCachedPathAllocationFree(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), "LR", ModeSatisfy)
	ev, err := NewEvaluator(scn, budget.NewSim(scn.Constraints.MaxSearchCost), 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev.Observe(obs.New(), 0) // metrics without tracing
	mask := make([]bool, ev.NumFeatures())
	mask[0], mask[1] = true, true
	if _, _, err := ev.Evaluate(mask); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := ev.Evaluate(mask); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("metrics-enabled cached Evaluate allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkEvaluateCachedDisabled is the no-op-overhead benchmark backing
// the CI guard: the cached-evaluation hot path with observability off.
func BenchmarkEvaluateCachedDisabled(b *testing.B) {
	benchmarkEvaluateCached(b, false)
}

// BenchmarkEvaluateCachedEnabled is the same path with metric counters
// attached, for eyeballing the marginal cost of the atomics.
func BenchmarkEvaluateCachedEnabled(b *testing.B) {
	benchmarkEvaluateCached(b, true)
}

func benchmarkEvaluateCached(b *testing.B, observe bool) {
	cs := constraint.Set{MinF1: 0.6, MaxSearchCost: 1e6, MaxFeatureFrac: 1}
	scn, err := NewScenario(benchData(400, 1), "LR", cs, false, ModeSatisfy, 7)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := NewEvaluator(scn, budget.NewSim(cs.MaxSearchCost), 7, 0)
	if err != nil {
		b.Fatal(err)
	}
	if observe {
		ev.Observe(obs.New(), 0)
	}
	mask := make([]bool, ev.NumFeatures())
	mask[0], mask[1] = true, true
	if _, _, err := ev.Evaluate(mask); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.visits = 0 // keep the visit cap out of the way
		if _, _, err := ev.Evaluate(mask); err != nil {
			b.Fatal(err)
		}
	}
}
