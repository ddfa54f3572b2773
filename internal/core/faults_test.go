package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/ranking"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// scriptedStrategy fails its first failFirst runs with fault(), then
// delegates to the inner strategy.
type scriptedStrategy struct {
	inner     Strategy
	failFirst int
	fault     func() error // nil return means panic instead
	runs      int
}

func (s *scriptedStrategy) Name() string { return s.inner.Name() }

func (s *scriptedStrategy) Run(ev *Evaluator, rng *xrand.RNG) error {
	s.runs++
	if s.runs <= s.failFirst {
		if err := s.fault(); err != nil {
			return err
		}
		panic("scripted strategy panic")
	}
	return s.inner.Run(ev, rng)
}

func mustStrategy(t *testing.T, name string) Strategy {
	t.Helper()
	s, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunStrategyIsolatesPanics(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	s := &scriptedStrategy{inner: mustStrategy(t, "SFS(NR)"), failFirst: 1,
		fault: func() error { return nil }}
	_, err := RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	var se *StrategyError
	if !errors.As(err, &se) {
		t.Fatalf("want *StrategyError, got %v", err)
	}
	if !se.Panicked() || se.Strategy != "SFS(NR)" {
		t.Fatalf("panic attribution: panicked=%v strategy=%q", se.Panicked(), se.Strategy)
	}
	if !strings.Contains(se.Error(), "scripted strategy panic") {
		t.Fatalf("panic message lost: %v", se)
	}
	if IsTransient(err) {
		t.Fatal("panics must not classify as transient")
	}
}

func TestRunStrategyWrapsPlainErrors(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	boom := errors.New("boom")
	s := &scriptedStrategy{inner: mustStrategy(t, "SFS(NR)"), failFirst: 1,
		fault: func() error { return boom }}
	_, err := RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	var se *StrategyError
	if !errors.As(err, &se) || se.Panicked() {
		t.Fatalf("want non-panic *StrategyError, got %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatal("cause must stay reachable through the wrapper")
	}
}

func TestExhaustedPropagatesThroughRunStrategyWithMeter(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	// A zero-limit meter exhausts on the pre-check of the first evaluation:
	// the run must end cleanly (no error) with nothing evaluated.
	res, err := RunStrategy(context.Background(), mustStrategy(t, "SFS(NR)"), scn, budget.NewSim(0), nil, 7, 0)
	if err != nil {
		t.Fatalf("exhaustion must not be an error: %v", err)
	}
	if res.Satisfied || res.Evaluations != 0 {
		t.Fatalf("zero-budget run evaluated something: %+v", res)
	}
	if res.BestValDistance <= 0 {
		t.Fatal("nothing-evaluated convention distance missing")
	}
}

// chargeThenFail charges cost on its first run and then fails transiently;
// every later run returns at once without charging.
type chargeThenFail struct {
	cost float64
	runs int
}

func (s *chargeThenFail) Name() string { return "charge-then-fail" }

func (s *chargeThenFail) Run(ev *Evaluator, _ *xrand.RNG) error {
	s.runs++
	if s.runs > 1 {
		return nil
	}
	if err := ev.Meter().Charge(s.cost); err != nil {
		return err
	}
	return &testTransientErr{}
}

// TestRunStrategyCallerMeterSpansAttempts pins the meter rule: every attempt
// charges a caller's meter, so a retry spends what the failed attempt left
// and the result's cost reads the whole run; a nil meter gives each attempt
// a fresh simulated budget.
func TestRunStrategyCallerMeterSpansAttempts(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	const charge = 7.5
	s := &chargeThenFail{cost: charge}
	res, err := RunStrategy(context.Background(), s, scn, budget.NewSim(scn.Constraints.MaxSearchCost), nil, 7, 20)
	if err != nil {
		t.Fatalf("caller meter: %v", err)
	}
	if s.runs != 2 || res.TotalCost != charge {
		t.Fatalf("caller meter: runs %d total cost %v, want 2 and %v", s.runs, res.TotalCost, charge)
	}

	s = &chargeThenFail{cost: charge}
	res, err = RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	if err != nil {
		t.Fatalf("nil meter: %v", err)
	}
	if s.runs != 2 || res.TotalCost != 0 {
		t.Fatalf("nil meter: runs %d total cost %v, want 2 and 0", s.runs, res.TotalCost)
	}
}

func TestIsTransientClassification(t *testing.T) {
	deg := &dataset.DegenerateSplitError{Name: "d", Class0: 1, Class1: 2}
	emb := &ranking.EmbeddingError{Err: errors.New("no convergence")}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{deg, true},
		{emb, true},
		{fmt.Errorf("wrapped: %w", deg), true},
		{&StrategyError{Strategy: "SFS(NR)", Cause: emb}, true},
		{&StrategyError{Strategy: "SFS(NR)", Cause: errors.New("hard")}, false},
		{budget.ErrExhausted, false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestRunStrategyContextRetriesTransient(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	s := &scriptedStrategy{inner: mustStrategy(t, "SFS(NR)"), failFirst: 2,
		fault: func() error { return &ranking.EmbeddingError{Err: errors.New("singular")} }}
	res, err := RunStrategy(context.Background(), s, scn, nil, nil, 7, 20)
	if err != nil {
		t.Fatalf("transient failures within the retry budget: %v", err)
	}
	if s.runs != 3 {
		t.Fatalf("runs %d, want 2 failures + 1 success", s.runs)
	}
	if !res.Satisfied {
		t.Fatal("surviving run should satisfy the easy constraints")
	}

	// One failure past the retry budget surfaces the transient error.
	s = &scriptedStrategy{inner: mustStrategy(t, "SFS(NR)"), failFirst: DefaultTransientRetries + 1,
		fault: func() error { return &ranking.EmbeddingError{Err: errors.New("singular")} }}
	if _, err := RunStrategy(context.Background(), s, scn, nil, nil, 7, 20); !IsTransient(err) {
		t.Fatalf("exhausted retries must surface the transient error, got %v", err)
	}

	// Non-transient failures never retry.
	s = &scriptedStrategy{inner: mustStrategy(t, "SFS(NR)"), failFirst: 1,
		fault: func() error { return nil }}
	if _, err := RunStrategy(context.Background(), s, scn, nil, nil, 7, 20); err == nil {
		t.Fatal("panic must fail the run")
	}
	if s.runs != 1 {
		t.Fatalf("panic retried %d times", s.runs-1)
	}
}

func TestRunStrategyContextCancellation(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)

	// Pre-canceled: no evaluation at all.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunStrategy(ctx, mustStrategy(t, "SFS(NR)"), scn, nil, nil, 7, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: %v", err)
	}

	// Canceled mid-run (from inside a strategy step): the run stops at the
	// next charge point and reports context.Canceled.
	ctx, cancel = context.WithCancel(context.Background())
	s := &cancelAfterStrategy{inner: mustStrategy(t, "SFS(NR)"), cancel: cancel}
	if _, err := RunStrategy(ctx, s, scn, nil, nil, 7, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: %v", err)
	}
}

// cancelAfterStrategy cancels its context as its first action, then runs the
// inner strategy — so the cancel lands before the first charge.
type cancelAfterStrategy struct {
	inner  Strategy
	cancel context.CancelFunc
}

func (s *cancelAfterStrategy) Name() string { return s.inner.Name() }

func (s *cancelAfterStrategy) Run(ev *Evaluator, rng *xrand.RNG) error {
	s.cancel()
	return s.inner.Run(ev, rng)
}

func TestPerturbSeed(t *testing.T) {
	if PerturbSeed(42, 0) != 42 {
		t.Fatal("attempt 0 must be the identity")
	}
	if PerturbSeed(42, 1) == 42 || PerturbSeed(42, 1) == PerturbSeed(42, 2) {
		t.Fatal("retry seeds must differ")
	}
	if PerturbSeed(42, 1) != PerturbSeed(42, 1) {
		t.Fatal("retry seeds must be deterministic")
	}
}
