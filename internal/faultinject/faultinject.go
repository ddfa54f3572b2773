// Package faultinject is the deterministic fault-injection harness of the
// DFS test suite: scripted decorators that make a strategy run panic, error,
// exhaust its budget, charge poisoned costs, or stall at exact, reproducible
// points. Every degradation path of the execution stack — panic isolation in
// core, transient retry, portfolio survival, pool continuation, cancellation
// — is proven against these injectors rather than against flaky timing.
//
// Faults fire at scripted charge indices (the meter decorator) or run
// indices (the strategy decorator), so the same script plus the same seed
// reproduces the same failure bit-for-bit. The package is test
// infrastructure: nothing in the serving path imports it.
package faultinject

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	// Panic panics at the injection point — exercising recover() isolation.
	Panic Kind = iota
	// Exhaust returns budget.ErrExhausted — a premature budget cut.
	Exhaust
	// Error returns the fault's Err (a deterministic failure).
	Error
	// TransientError returns a retryable error (core.IsTransient == true).
	TransientError
	// NaNCost replaces the charged amount with NaN — exercising the meter
	// guards against accounting corruption.
	NaNCost
	// Delay sleeps for the fault's Sleep duration, then charges normally —
	// for cancellation and timeout tests.
	Delay
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Exhaust:
		return "exhaust"
	case Error:
		return "error"
	case TransientError:
		return "transient-error"
	case NaNCost:
		return "nan-cost"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Fault is one scripted fault.
type Fault struct {
	// Kind selects the failure mode.
	Kind Kind
	// Err is the payload of Kind Error; nil uses a generic injected error.
	Err error
	// Sleep is the payload of Kind Delay.
	Sleep time.Duration
}

func (f Fault) fire(site string, index int) error {
	switch f.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinject: scripted panic at %s %d", site, index))
	case Exhaust:
		return budget.ErrExhausted
	case Error:
		if f.Err != nil {
			return f.Err
		}
		return fmt.Errorf("faultinject: scripted error at %s %d", site, index)
	case TransientError:
		return &transientError{site: site, index: index}
	default:
		return nil
	}
}

// Fire triggers the fault's error/panic payload outside the built-in
// decorators, for fault scripts at other granularities (e.g. the
// servicefault subpackage's per-job faults). Delay and NaNCost have no
// error payload and return nil — their effects are site-specific and the
// caller applies them itself.
func (f Fault) Fire(site string, index int) error { return f.fire(site, index) }

// transientError is retryable under core.IsTransient.
type transientError struct {
	site  string
	index int
}

func (e *transientError) Error() string {
	return fmt.Sprintf("faultinject: scripted transient error at %s %d", e.site, e.index)
}

// Transient implements the core retry-classification interface.
func (e *transientError) Transient() bool { return true }

// Meter wraps a budget meter, firing scripted faults at 0-based Charge-call
// indices. Charges are the natural injection points: every training, eval,
// ranking, and attack cost passes through the meter, so "fail at charge 7"
// lands at the same search step on every run. Meter is safe for concurrent
// use like the meters it wraps are used (one per strategy run).
type Meter struct {
	mu    sync.Mutex
	inner budget.Meter
	plan  map[int]Fault
	calls int
}

// NewMeter returns a meter injecting plan's faults around inner. The map is
// keyed by Charge-call index.
func NewMeter(inner budget.Meter, plan map[int]Fault) *Meter {
	return &Meter{inner: inner, plan: plan}
}

// Charge implements budget.Meter, firing the scripted fault for this call
// index first.
func (m *Meter) Charge(cost float64) error {
	m.mu.Lock()
	idx := m.calls
	m.calls++
	f, ok := m.plan[idx]
	m.mu.Unlock()
	if ok {
		switch f.Kind {
		case NaNCost:
			cost = math.NaN()
		case Delay:
			time.Sleep(f.Sleep)
		default:
			if err := f.fire("charge", idx); err != nil {
				return err
			}
		}
	}
	return m.inner.Charge(cost)
}

// Spent implements budget.Meter.
func (m *Meter) Spent() float64 { return m.inner.Spent() }

// Limit implements budget.Meter.
func (m *Meter) Limit() float64 { return m.inner.Limit() }

// Exhausted implements budget.Meter.
func (m *Meter) Exhausted() bool { return m.inner.Exhausted() }

// Calls returns how many charges the meter has seen.
func (m *Meter) Calls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

// Strategy wraps a core.Strategy, firing a scripted fault on its first
// FailFirst runs (0-based run index) before delegating — the injector for
// retry, portfolio-degradation, and pool-continuation tests. It is safe for
// the concurrent Run calls a portfolio may issue.
type Strategy struct {
	// Inner is the real strategy.
	Inner core.Strategy
	// FailFirst is how many leading runs fail.
	FailFirst int
	// Fault fires on the failing runs.
	Fault Fault

	mu   sync.Mutex
	runs int
}

// Name implements core.Strategy.
func (s *Strategy) Name() string { return s.Inner.Name() }

// Run implements core.Strategy.
func (s *Strategy) Run(ev *core.Evaluator, rng *xrand.RNG) error {
	s.mu.Lock()
	idx := s.runs
	s.runs++
	s.mu.Unlock()
	if idx < s.FailFirst {
		if err := s.Fault.fire("run", idx); err != nil {
			return err
		}
		if s.Fault.Kind == Delay {
			time.Sleep(s.Fault.Sleep)
		}
	}
	return s.Inner.Run(ev, rng)
}

// Runs returns how many times the strategy has been started.
func (s *Strategy) Runs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs
}

// NaNScore returns a custom constraint whose metric yields NaN at the
// scripted 0-based evaluation indices (and 1 otherwise, i.e. satisfied); a
// nil script poisons every call. This injects a corrupted score into the
// Eq. 1 distance pipeline: the evaluator must degrade gracefully — NaN
// candidates count as maximal violations and never confirm as solutions —
// instead of corrupting the search state.
func NaNScore(name string, at map[int]bool) core.CustomConstraint {
	var (
		mu    sync.Mutex
		calls int
	)
	return core.CustomConstraint{
		Name: name,
		Min:  0.5,
		Metric: func(core.MetricInput) float64 {
			mu.Lock()
			idx := calls
			calls++
			mu.Unlock()
			if at == nil || at[idx] {
				return math.NaN()
			}
			return 1
		},
	}
}
