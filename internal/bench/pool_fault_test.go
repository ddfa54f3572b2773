package bench

import (
	"context"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/faultinject"
)

// withPoolFault makes the named strategy fire the fault on every pool run,
// restoring the real constructor on cleanup.
func withPoolFault(t *testing.T, fault faultinject.Fault, victim string) {
	t.Helper()
	orig := newPoolStrategy
	newPoolStrategy = func(name string) (core.Strategy, error) {
		s, err := orig(name)
		if err != nil || name != victim {
			return s, err
		}
		return &faultinject.Strategy{Inner: s, FailFirst: 1 << 30, Fault: fault}, nil
	}
	t.Cleanup(func() { newPoolStrategy = orig })
}

func TestPoolRecordsStrategyFailureAndContinues(t *testing.T) {
	cfg := tinyConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 4
	withPoolFault(t, faultinject.Fault{Kind: faultinject.Panic}, "SA(NR)")

	p, err := BuildPool(cfg)
	if err != nil {
		t.Fatalf("one panicking strategy must not sink the pool: %v", err)
	}
	if len(p.Records) != 4 || p.Interrupted {
		t.Fatalf("records %d interrupted %v", len(p.Records), p.Interrupted)
	}
	for i := range p.Records {
		r := &p.Records[i]
		if r.Failed() {
			t.Fatalf("scenario %d failed wholesale: %s", i, r.Err)
		}
		if _, ok := r.Results["SA(NR)"]; ok {
			t.Fatalf("scenario %d kept a result for the panicking strategy", i)
		}
		if r.Failures["SA(NR)"] == "" {
			t.Fatalf("scenario %d did not record the SA(NR) failure", i)
		}
		if got := r.FailureKinds["SA(NR)"]; got != core.FailurePanic {
			t.Fatalf("scenario %d classified the panic as %q", i, got)
		}
		// The other 15 strategies + baseline survive.
		if len(r.Results) != len(core.StrategyNames) {
			t.Fatalf("scenario %d has %d surviving results", i, len(r.Results))
		}
	}
}

// TestPoolClassifiesTransientExhaustion: a strategy that keeps failing
// transiently until its retries run out lands in the transient-exhausted
// bucket, not the generic internal one.
func TestPoolClassifiesTransientExhaustion(t *testing.T) {
	cfg := tinyConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 2
	withPoolFault(t, faultinject.Fault{Kind: faultinject.TransientError}, "SBS(NR)")

	p, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Records {
		r := &p.Records[i]
		if got := r.FailureKinds["SBS(NR)"]; got != core.FailureTransientExhausted {
			t.Fatalf("scenario %d classified retry exhaustion as %q", i, got)
		}
	}
}

func TestPoolRecordsScenarioFailureAndContinues(t *testing.T) {
	cfg := tinyConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 8
	// A bogus dataset name fails dataset materialization for every scenario
	// that samples it; the others must still complete.
	cfg.Datasets = []string{"COMPAS", "no-such-dataset"}

	p, err := BuildPool(cfg)
	if err != nil {
		t.Fatalf("bad scenarios must degrade, not sink the pool: %v", err)
	}
	failed := p.FailedIDs()
	if len(failed) == 0 || len(failed) == len(p.Records) {
		t.Fatalf("expected a mix of failed and surviving scenarios, got %d/%d failed",
			len(failed), len(p.Records))
	}
	for _, id := range failed {
		if p.Records[id].Satisfiable() {
			t.Fatalf("failed scenario %d reads as satisfiable", id)
		}
	}
	for i := range p.Records {
		if !p.Records[i].Failed() && len(p.Records[i].Results) != len(core.StrategyNames)+1 {
			t.Fatalf("surviving scenario %d incomplete", i)
		}
	}
}

func TestPoolAllScenariosFailedErrors(t *testing.T) {
	cfg := tinyConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 3
	cfg.Datasets = []string{"no-such-dataset"}
	if _, err := BuildPool(cfg); err == nil {
		t.Fatal("a pool with zero survivors must error")
	}
}

func TestPoolInterruption(t *testing.T) {
	cfg := tinyConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 6
	cfg.Workers = 1
	// Stall each SFS run so the cancel lands while the pool is mid-build.
	withPoolFault(t, faultinject.Fault{Kind: faultinject.Delay, Sleep: 10 * time.Millisecond}, "SFS(NR)")

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(25 * time.Millisecond)
		cancel()
	}()
	p, err := BuildPoolResumed(ctx, cfg, RunOptions{})
	if err != nil {
		t.Fatalf("interruption must return the partial pool: %v", err)
	}
	if !p.Interrupted {
		t.Fatal("pool must be marked interrupted")
	}
	if len(p.Records) >= 6 {
		t.Fatalf("interrupted pool completed all %d scenarios", len(p.Records))
	}
	// Whatever completed is fully usable.
	for i := range p.Records {
		if !p.Records[i].Failed() && len(p.Records[i].Results) == 0 {
			t.Fatalf("partial record %d is empty", i)
		}
	}
}
