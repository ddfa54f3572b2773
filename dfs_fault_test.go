package dfs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/faultinject"
	"github.com/declarative-fs/dfs/internal/obs"
)

// withFaultyStrategies redirects strategy construction so the named
// portfolio members fire the given fault on every run, restoring the real
// constructor on test cleanup.
func withFaultyStrategies(t *testing.T, fault faultinject.Fault, names ...string) {
	t.Helper()
	faulty := make(map[string]bool, len(names))
	for _, n := range names {
		faulty[n] = true
	}
	orig := newStrategy
	newStrategy = func(name string) (core.Strategy, error) {
		s, err := orig(name)
		if err != nil || !faulty[name] {
			return s, err
		}
		return &faultinject.Strategy{Inner: s, FailFirst: 1 << 30, Fault: fault}, nil
	}
	t.Cleanup(func() { newStrategy = orig })
}

func easyCS() Constraints {
	return Constraints{MinF1: 0.5, MaxSearchCost: 5000, MaxFeatureFrac: 1}
}

func portfolioStrategies() []string {
	return []string{"TPE(FCBF)", "SFFS(NR)", "TPE(NR)", "TPE(MIM)", "SA(NR)"}
}

func TestPortfolioSurvivesOnePanickingStrategy(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	withFaultyStrategies(t, faultinject.Fault{Kind: faultinject.Panic}, "TPE(NR)")

	sel, err := RunPortfolio(d, LR, easyCS(), portfolioStrategies(), WithSeed(3))
	if err != nil {
		t.Fatalf("portfolio must survive one panicking member: %v", err)
	}
	if sel.Strategy == "TPE(NR)" {
		t.Fatal("the panicked strategy cannot win")
	}
	if len(sel.Report) != 5 {
		t.Fatalf("report covers %d members, want 5", len(sel.Report))
	}
	var failed, ok int
	for _, r := range sel.Report {
		switch r.Status {
		case StrategyFailed:
			failed++
			if r.Strategy != "TPE(NR)" {
				t.Fatalf("wrong member reported failed: %q", r.Strategy)
			}
			var se *StrategyError
			if !errors.As(r.Err, &se) || !se.Panicked() {
				t.Fatalf("failure must carry the panicked StrategyError, got %v", r.Err)
			}
		default:
			ok++
			if r.Status == StrategySatisfied && r.Cost <= 0 {
				t.Fatalf("satisfied member %s reports cost %v", r.Strategy, r.Cost)
			}
		}
	}
	if failed != 1 || ok != 4 {
		t.Fatalf("report: %d failed, %d surviving", failed, ok)
	}
}

func TestPortfolioAllFailedJoinsErrors(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	names := portfolioStrategies()
	withFaultyStrategies(t, faultinject.Fault{Kind: faultinject.Panic}, names...)

	_, err = RunPortfolio(d, LR, easyCS(), names, WithSeed(3))
	if err == nil {
		t.Fatal("all-members-failed portfolio must error")
	}
	for _, n := range names {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("joined error must name %s:\n%v", n, err)
		}
	}
	var se *StrategyError
	if !errors.As(err, &se) {
		t.Fatalf("joined error must expose the typed failures: %v", err)
	}
}

func TestPortfolioDegradationMatchesFaultFreeRun(t *testing.T) {
	// The surviving members' outcome must be what a fault-free portfolio of
	// just those members would have produced.
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := RunPortfolio(d, LR, easyCS(),
		[]string{"TPE(FCBF)", "SFFS(NR)", "TPE(MIM)", "SA(NR)"}, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	withFaultyStrategies(t, faultinject.Fault{Kind: faultinject.Panic}, "TPE(NR)")
	degraded, err := RunPortfolio(d, LR, easyCS(), portfolioStrategies(), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	a, b := *reduced, *degraded
	a.Report, b.Report = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("degraded portfolio diverged from the fault-free reduced one:\n%+v\n%+v", a, b)
	}
}

func TestSelectContextCancel(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err = SelectContext(ctx, d, LR, easyCS(), WithSeed(3))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// "Promptly" means well under one subset evaluation (~tens of ms).
	if time.Since(start) > 2*time.Second {
		t.Fatalf("cancel took %v", time.Since(start))
	}
}

func TestPortfolioContextCancelMidRun(t *testing.T) {
	d, err := GenerateBuiltin("German Credit", 11)
	if err != nil {
		t.Fatal(err)
	}
	// Stall every member's first run long enough for the cancel to land
	// mid-portfolio, then cancel shortly after the goroutines start.
	withFaultyStrategies(t, faultinject.Fault{Kind: faultinject.Delay, Sleep: 30 * time.Millisecond},
		portfolioStrategies()...)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err = RunPortfolioContext(ctx, d, LR, easyCS(), portfolioStrategies(), WithSeed(5))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestSelectContextMatchesSelect(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Select(d, LR, easyCS(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SelectContext(context.Background(), d, LR, easyCS(), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("SelectContext diverged from Select:\n%+v\n%+v", want, got)
	}
}

// TestPortfolioDeterministicAcrossRuns pins that a portfolio is a pure
// function of its inputs: the same call twice, and the same call with and
// without evaluation sharing, return deeply equal selections. The sharing
// case declares privacy and safety, so the DP-noise and attack paths run.
func TestPortfolioDeterministicAcrossRuns(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cs     Constraints
		second []Option // options of the second call beyond the seed
	}{
		{"same call twice", easyCS(), nil},
		{"evaluation sharing off",
			Constraints{MinF1: 0.5, MaxSearchCost: 5000, MaxFeatureFrac: 1, MinSafety: 0.5, PrivacyEps: 5},
			[]Option{WithoutEvaluationSharing()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := RunPortfolio(d, LR, tc.cs, nil, WithSeed(13))
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunPortfolio(d, LR, tc.cs, nil, append([]Option{WithSeed(13)}, tc.second...)...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("portfolio not deterministic:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestWallClockSelectRetriesTransient pins that a wall-clock Select has the
// simulated path's fault tolerance: a strategy failing transiently once is
// retried within the deadline, under one strategy_run span below the select
// span.
func TestWallClockSelectRetriesTransient(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	orig := newStrategy
	newStrategy = func(name string) (core.Strategy, error) {
		s, err := orig(name)
		if err != nil {
			return nil, err
		}
		return &faultinject.Strategy{Inner: s, FailFirst: 1,
			Fault: faultinject.Fault{Kind: faultinject.TransientError}}, nil
	}
	t.Cleanup(func() { newStrategy = orig })

	var buf bytes.Buffer
	rt := obs.New(obs.WithTracer(obs.NewWriterTracer(&buf)))
	_, err = SelectContext(obs.NewContext(context.Background(), rt), d, LR, easyCS(),
		WithWallClock(30*time.Second), WithSeed(3), WithMaxEvaluations(40))
	if err != nil {
		t.Fatalf("a transient failure within the retry budget must not fail the run: %v", err)
	}
	snap := rt.Metrics().Snapshot()
	if got := snap.Counter("strategy.retries"); got != 1 {
		t.Fatalf("strategy.retries = %d, want 1", got)
	}
	if got := snap.Counter("strategy.runs"); got != 1 {
		t.Fatalf("strategy.runs = %d, want 1", got)
	}
	var selectID float64
	var runParents []float64
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var r map[string]any
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r["t"] != "start" {
			continue
		}
		switch r["name"] {
		case "select":
			selectID, _ = r["id"].(float64)
		case "strategy_run":
			parent, _ := r["parent"].(float64)
			runParents = append(runParents, parent)
		}
	}
	if selectID == 0 || len(runParents) != 1 || runParents[0] != selectID {
		t.Fatalf("want one strategy_run span under select span %v, got parents %v", selectID, runParents)
	}
}

// TestPortfolioHonoursWallClock pins that RunPortfolio meters its members
// with the WithWallClock deadline, as Select does: an expired deadline
// leaves the portfolio unsatisfied, and a live one, charged by every member
// at once, reports its cost in seconds of that deadline.
func TestPortfolioHonoursWallClock(t *testing.T) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := RunPortfolio(d, LR, easyCS(), portfolioStrategies(),
		WithWallClock(time.Nanosecond), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Satisfied {
		t.Fatalf("expired deadline still satisfied by %s at cost %v", sel.Strategy, sel.Cost)
	}

	sel, err = RunPortfolio(d, LR, easyCS(), portfolioStrategies(),
		WithWallClock(30*time.Second), WithSeed(3), WithMaxEvaluations(40))
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Satisfied || sel.Cost <= 0 || sel.Cost >= 30 {
		t.Fatalf("live deadline: satisfied %v at cost %v, want satisfied within 30 s", sel.Satisfied, sel.Cost)
	}
}
