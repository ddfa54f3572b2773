package core

import (
	"context"
	"time"

	"github.com/declarative-fs/dfs/internal/xrand"
)

// RetryPolicy describes a bounded, deterministic transient-retry schedule:
// how many attempts a transiently failing operation gets and how long to
// back off between them. The zero value is RunStrategy's fixed schedule —
// DefaultTransientRetries immediate retries with no backoff; the serving
// layer's job-level and fan-out shard retries configure their own.
//
// Backoff is capped exponential with deterministic jitter: retry k waits
// jitter(min(BaseBackoff<<(k-1), CapBackoff)), where jitter draws from an
// xrand stream derived from JitterSeed and k. Identical policies therefore
// produce identical wait sequences, which keeps replayed runs (and the
// serving layer's fault-script tests) reproducible where time.Sleep with
// math/rand jitter would not be.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first;
	// <= 0 means DefaultTransientRetries + 1.
	MaxAttempts int
	// BaseBackoff is the nominal wait before the first retry; 0 retries
	// immediately (the historical behavior).
	BaseBackoff time.Duration
	// CapBackoff bounds the exponential growth; 0 with BaseBackoff > 0
	// leaves the growth uncapped.
	CapBackoff time.Duration
	// JitterSeed seeds the deterministic jitter stream; policies differing
	// only in JitterSeed produce different (but each reproducible) waits.
	JitterSeed uint64
}

// Attempts returns the total attempt budget (>= 1).
func (p RetryPolicy) Attempts() int {
	if p.MaxAttempts <= 0 {
		return DefaultTransientRetries + 1
	}
	return p.MaxAttempts
}

// Backoff returns the jittered wait before retry k (1-based: Backoff(1)
// precedes the first retry). It is 0 for k < 1 or a zero BaseBackoff, and
// deterministic in (policy, k).
func (p RetryPolicy) Backoff(k int) time.Duration {
	if k < 1 || p.BaseBackoff <= 0 {
		return 0
	}
	d := p.BaseBackoff
	for i := 1; i < k; i++ {
		d *= 2
		if p.CapBackoff > 0 && d >= p.CapBackoff {
			d = p.CapBackoff
			break
		}
		if d <= 0 { // overflow guard for absurd k
			d = p.CapBackoff
			if d <= 0 {
				d = 1<<63 - 1
			}
			break
		}
	}
	if p.CapBackoff > 0 && d > p.CapBackoff {
		d = p.CapBackoff
	}
	// Deterministic jitter in [d/2, d): decorrelates a fleet of retriers
	// without sacrificing reproducibility. The stream is derived from the
	// seed and the retry index, so Backoff is a pure function.
	rng := xrand.NewStream(p.JitterSeed, uint64(k))
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(d-half))
}

// Wait blocks for Backoff(k), returning early with ctx.Err() if ctx is
// canceled first — a retry loop cut short mid-backoff must report the
// cancellation, not sleep through it. A zero backoff only checks ctx.
func (p RetryPolicy) Wait(ctx context.Context, k int) error {
	d := p.Backoff(k)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
