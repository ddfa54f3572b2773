package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// obsConfig is the canonical sharing config from TestPoolSharingDeterminism:
// several datasets, the sampler's full window, parallel workers.
func obsConfig() Config {
	return Config{
		Scenarios: 6,
		Seed:      3,
		Mode:      core.ModeSatisfy,
		MaxEvals:  15,
		Datasets:  []string{"COMPAS", "Indian Liver Patient", "Brazil Tourism"},
		Sampler:   constraint.SamplerConfig{MinSearchCost: 10, MaxSearchCost: 1500},
		Workers:   4,
		Label:     "obs-test",
	}
}

// traceRecord is the decoded form of one JSONL trace line.
type traceRecord map[string]any

func decodeTrace(t *testing.T, buf *bytes.Buffer) []traceRecord {
	t.Helper()
	var out []traceRecord
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m traceRecord
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid trace line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func (r traceRecord) id() uint64   { v, _ := r["id"].(float64); return uint64(v) }
func (r traceRecord) span() uint64 { v, _ := r["span"].(float64); return uint64(v) }
func (r traceRecord) parent() uint64 {
	v, _ := r["parent"].(float64)
	return uint64(v)
}

// TestPoolObservability runs the canonical sharing pool with full tracing and
// metrics attached and checks the acceptance criteria of the tentpole:
//
//   - observation never changes the run (records deep-equal an unobserved
//     build of the same config);
//   - the metric snapshot satisfies the memo invariants;
//   - the JSONL trace reconstructs into a well-formed span tree covering
//     every scenario and every strategy run;
//   - eval-event memo hit/miss counts in the trace match the snapshot.
func TestPoolObservability(t *testing.T) {
	cfg := obsConfig()

	plain, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	rt := obs.New(obs.WithTracer(obs.NewWriterTracer(&buf)))
	ctx := obs.NewContext(context.Background(), rt)
	observed, err := BuildPoolContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Tracer() != nil && rt.Tracer().Err() != nil {
		t.Fatalf("trace sink error: %v", rt.Tracer().Err())
	}

	// Ground rule: observability is read-only with respect to results.
	if !reflect.DeepEqual(plain.Records, observed.Records) {
		t.Fatal("attaching observability changed the pool records")
	}

	snap := rt.Metrics().Snapshot()

	// Memo accounting invariants. Lookups are counted per lock acquire (a
	// waiter that wakes and re-checks counts again), so every lookup resolves
	// to exactly one of hit/miss/wait.
	lookups := snap.Counter("memo.lookups")
	hits := snap.Counter("memo.hits")
	misses := snap.Counter("memo.misses")
	waits := snap.Counter("memo.waits")
	if lookups != hits+misses+waits {
		t.Fatalf("memo.lookups %d != hits %d + misses %d + waits %d",
			lookups, hits, misses, waits)
	}
	// With sharing on, every physical training is a memo miss and every
	// replay is a hit.
	if trained := snap.Counter("evals.trained"); trained != misses {
		t.Fatalf("evals.trained %d != memo.misses %d", trained, misses)
	}
	if replayed := snap.Counter("evals.replayed"); replayed != hits {
		t.Fatalf("evals.replayed %d != memo.hits %d", replayed, hits)
	}
	if hits == 0 {
		t.Fatal("canonical sharing pool produced no memo hits")
	}

	// The two-level scheduler must drain: no in-flight work after the build.
	for _, g := range []string{"pool.inflight.scenarios", "pool.inflight.strategies"} {
		if v := snap.Gauge(g); v != 0 {
			t.Fatalf("gauge %s = %d after pool completion, want 0", g, v)
		}
	}
	for name, v := range snap.Gauges {
		if v < 0 {
			t.Fatalf("gauge %s went negative: %d", name, v)
		}
	}

	// Reconstruct the span tree.
	recs := decodeTrace(t, &buf)
	starts := map[uint64]traceRecord{}
	ended := map[uint64]bool{}
	var evalHits, evalMisses int64
	for _, r := range recs {
		switch r["t"] {
		case "start":
			if _, dup := starts[r.id()]; dup {
				t.Fatalf("duplicate span id %d", r.id())
			}
			starts[r.id()] = r
		case "end":
			if _, ok := starts[r.id()]; !ok {
				t.Fatalf("end for unknown span %d", r.id())
			}
			if ended[r.id()] {
				t.Fatalf("span %d ended twice", r.id())
			}
			ended[r.id()] = true
		case "event":
			if r["name"] == "eval" {
				switch r["memo"] {
				case "hit":
					evalHits++
				case "miss":
					evalMisses++
				}
				if _, ok := starts[r.span()]; !ok {
					t.Fatalf("eval event attached to unknown span %d", r.span())
				}
			}
		default:
			t.Fatalf("unknown record type %v", r["t"])
		}
	}
	for id := range starts {
		if !ended[id] {
			t.Fatalf("span %d (%v) never ended", id, starts[id]["name"])
		}
	}

	// Exactly one pool root; every scenario under it; every strategy_run
	// under a scenario.
	var poolID uint64
	scenarios := map[uint64]traceRecord{}
	strategyRuns := 0
	perScenario := map[uint64]map[string]bool{}
	for id, r := range starts {
		switch r["name"] {
		case "pool":
			if poolID != 0 {
				t.Fatal("more than one pool span")
			}
			poolID = id
			if r["label"] != cfg.Label {
				t.Fatalf("pool span label %v, want %q", r["label"], cfg.Label)
			}
		case "scenario":
			scenarios[id] = r
		}
	}
	for id, r := range starts {
		switch r["name"] {
		case "scenario":
			if r.parent() != poolID {
				t.Fatalf("scenario span %d has parent %d, want pool %d", id, r.parent(), poolID)
			}
		case "strategy_run":
			strategyRuns++
			parent := r.parent()
			if _, ok := scenarios[parent]; !ok {
				t.Fatalf("strategy_run span %d not under a scenario (parent %d)", id, parent)
			}
			name, _ := r["strategy"].(string)
			if name == "" {
				t.Fatalf("strategy_run span %d missing strategy attr", id)
			}
			if perScenario[parent] == nil {
				perScenario[parent] = map[string]bool{}
			}
			if perScenario[parent][name] {
				t.Fatalf("scenario span %d ran strategy %q twice", parent, name)
			}
			perScenario[parent][name] = true
		}
	}
	if len(scenarios) != cfg.Scenarios {
		t.Fatalf("trace holds %d scenario spans, want %d", len(scenarios), cfg.Scenarios)
	}
	wantStrategies := len(core.StrategyNames) + 1 // + the all-features baseline
	for id, set := range perScenario {
		if len(set) != wantStrategies {
			t.Fatalf("scenario span %d ran %d strategies, want %d: %v",
				id, len(set), wantStrategies, set)
		}
	}
	if got := int64(strategyRuns); got != snap.Counter("strategy.runs") {
		t.Fatalf("trace has %d strategy_run spans, counter says %d",
			strategyRuns, snap.Counter("strategy.runs"))
	}

	// Trace-level eval accounting must agree with the counters.
	if evalHits != hits {
		t.Fatalf("trace eval hits %d != memo.hits %d", evalHits, hits)
	}
	if evalMisses != misses {
		t.Fatalf("trace eval misses %d != memo.misses %d", evalMisses, misses)
	}

	// Progress is read off the counters: the whole planned pool is done.
	planned := snap.Counter("pool.scenarios_planned")
	done := snap.Counter("pool.checkpoint.resumed") + snap.Counter("pool.scenarios_executed")
	if planned != int64(cfg.Scenarios) || done != planned {
		t.Fatalf("pool.scenarios_planned %d, resumed+executed %d, want %d", planned, done, cfg.Scenarios)
	}
}

// TestProgressLine checks the -progress line against the counters it is
// built from, across two pools on one runtime: the first executes every
// scenario into a checkpoint, the second resumes them all. Counts are
// cumulative, and only executed scenarios start strategy runs.
func TestProgressLine(t *testing.T) {
	cfg := obsConfig()
	cfg.Scenarios = 2
	rt := obs.New()
	ctx := obs.NewContext(context.Background(), rt)
	path := filepath.Join(t.TempDir(), "pool.ckpt")
	for i := 0; i < 2; i++ {
		if _, err := ResumePool(ctx, cfg, path); err != nil {
			t.Fatal(err)
		}
	}
	snap := rt.Metrics().Snapshot()
	line := ProgressLine(snap)
	var done, planned, failed, runs, degraded int64
	if _, err := fmt.Sscanf(line, "# pools: %d/%d scenarios done (%d failed), %d strategy runs started (%d degraded)",
		&done, &planned, &failed, &runs, &degraded); err != nil {
		t.Fatalf("unparseable progress line %q: %v", line, err)
	}
	if resumed, executed := snap.Counter("pool.checkpoint.resumed"), snap.Counter("pool.scenarios_executed"); resumed != 2 || executed != 2 {
		t.Fatalf("resumed %d, executed %d, want 2 and 2", resumed, executed)
	}
	perScenario := int64(len(core.StrategyNames) + 1)
	if done != 4 || planned != 4 || runs != 2*perScenario || runs != snap.Counter("strategy.runs") {
		t.Fatalf("line %q, want 4/4 scenarios done and %d runs started", line, 2*perScenario)
	}
	if failed != snap.Counter("pool.scenario_failures") || degraded != snap.Counter("pool.degraded_strategies") {
		t.Fatalf("line %q disagrees with failure counters %v", line, snap.Counters)
	}
}

// TestSharedMemoHitRateFloor pins the cross-strategy sharing win introduced
// in the previous change as a metrics-based regression floor: on the
// canonical config a substantial fraction of memo lookups must resolve as
// replays. The floor sits below the observed rate (~0.35) so seed or dataset
// tweaks don't flake it, while a real sharing regression (keying bug,
// premature invalidation) still trips it.
func TestSharedMemoHitRateFloor(t *testing.T) {
	rt := obs.New() // metrics only; no tracer
	ctx := obs.NewContext(context.Background(), rt)
	if _, err := BuildPoolContext(ctx, obsConfig()); err != nil {
		t.Fatal(err)
	}
	snap := rt.Metrics().Snapshot()
	hits := snap.Counter("memo.hits")
	misses := snap.Counter("memo.misses")
	if hits+misses == 0 {
		t.Fatal("no memo traffic recorded")
	}
	rate := float64(hits) / float64(hits+misses)
	const floor = 0.25
	if rate < floor {
		t.Fatalf("shared-memo hit rate %.3f below regression floor %.2f (hits %d, misses %d)",
			rate, floor, hits, misses)
	}
	t.Logf("shared-memo hit rate %.3f (hits %d, misses %d, waits %d)",
		rate, hits, misses, snap.Counter("memo.waits"))
}
