package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/model"
)

// TestRetryPolicyZeroValue pins the compatibility contract: the zero policy
// must reproduce the historical hardcoded behavior (DefaultTransientRetries
// immediate retries) exactly, and an explicit MaxAttempts is taken as is.
func TestRetryPolicyZeroValue(t *testing.T) {
	var p RetryPolicy
	if got, want := p.Attempts(), DefaultTransientRetries+1; got != want {
		t.Fatalf("zero policy attempts = %d, want %d", got, want)
	}
	for k := 0; k < 5; k++ {
		if d := p.Backoff(k); d != 0 {
			t.Fatalf("zero policy Backoff(%d) = %v, want 0", k, d)
		}
	}
	start := time.Now()
	if err := p.Wait(context.Background(), 1); err != nil {
		t.Fatalf("zero policy Wait: %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("zero policy Wait slept")
	}
	if got := (RetryPolicy{MaxAttempts: 5}).Attempts(); got != 5 {
		t.Fatalf("MaxAttempts 5 grants %d attempts, want 5", got)
	}
}

// TestRetryPolicyBackoffDeterministic pins the schedule: pure function of
// (policy, k), jittered into [nominal/2, nominal), capped exponential.
func TestRetryPolicyBackoffDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseBackoff: 100 * time.Millisecond, CapBackoff: time.Second, JitterSeed: 7}
	nominal := func(k int) time.Duration {
		d := p.BaseBackoff
		for i := 1; i < k; i++ {
			d *= 2
			if d > p.CapBackoff {
				break
			}
		}
		if d > p.CapBackoff {
			d = p.CapBackoff
		}
		return d
	}
	for k := 1; k <= 12; k++ {
		a, b := p.Backoff(k), p.Backoff(k)
		if a != b {
			t.Fatalf("Backoff(%d) not deterministic: %v vs %v", k, a, b)
		}
		n := nominal(k)
		if a < n/2 || a >= n {
			t.Fatalf("Backoff(%d) = %v outside jitter window [%v, %v)", k, a, n/2, n)
		}
	}
	other := p
	other.JitterSeed = 8
	diff := false
	for k := 1; k <= 12; k++ {
		if p.Backoff(k) != other.Backoff(k) {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different jitter seeds produced identical schedules")
	}
}

// TestRetryPolicyWaitCancel pins that a backoff wait is cut short by
// cancellation instead of sleeping through it.
func TestRetryPolicyWaitCancel(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 2, BaseBackoff: 30 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := p.Wait(ctx, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait under cancellation = %v, want context.Canceled", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("Wait ignored cancellation and slept on")
	}
}

// TestRetryRespectsCancellationMidBackoff drives the strategy-run retry
// loop: once the context is canceled between attempts, a transiently
// failing strategy is not retried — the run reports the cancellation after
// one attempt instead of spending the rest of its retry budget.
func TestRetryRespectsCancellationMidBackoff(t *testing.T) {
	scn := mustScenario(t, easyConstraints(), model.KindLR, ModeSatisfy)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := &scriptedStrategy{inner: mustStrategy(t, "SFS(NR)"), failFirst: 1 << 30,
		fault: func() error {
			cancel()
			return &testTransientErr{}
		}}
	_, err := RunStrategy(ctx, s, scn, nil, nil, 7, 20)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s.runs != 1 {
		t.Fatalf("runs %d, want 1: a canceled run must not retry", s.runs)
	}
}

// testTransientErr classifies as transient via the retry interface.
type testTransientErr struct{}

func (*testTransientErr) Error() string   { return "test: transient" }
func (*testTransientErr) Transient() bool { return true }
