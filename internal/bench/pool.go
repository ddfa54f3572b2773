// Package bench is the experiment harness of the reproduction: it fuzzes ML
// scenarios following Listing 1 (random dataset, model, and constraint set),
// runs every FS strategy on every scenario under the simulated budget, and
// regenerates each table and figure of the paper's evaluation (§6) from the
// resulting outcome pool. See DESIGN.md §3 for the per-experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers.
package bench

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/optimizer"
	"github.com/declarative-fs/dfs/internal/synth"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Config controls a benchmark run.
type Config struct {
	// Scenarios is the number of fuzzed ML scenarios.
	Scenarios int
	// Seed drives all randomness; identical configs reproduce bit-for-bit.
	Seed uint64
	// HPO enables the hyperparameter grids of §6.1.
	HPO bool
	// Mode selects constraint satisfaction or utility maximization.
	Mode core.Mode
	// MaxEvals bounds real compute per strategy run; 0 means 120.
	MaxEvals int
	// Datasets restricts the dataset profiles (default: all 19).
	Datasets []string
	// Sampler bounds the constraint fuzzer (default: the paper's window).
	Sampler constraint.SamplerConfig
	// Workers is the parallelism; <= 0 means GOMAXPROCS. It governs both
	// scheduling levels: at most Workers scenarios are in flight, and at most
	// Workers strategy runs execute concurrently across all of them.
	Workers int
	// NoEvalSharing disables the per-scenario trained-subset memo, forcing
	// fully private evaluation caches (the pre-sharing behavior). Records are
	// identical either way — sharing only skips redundant physical training —
	// so this is a debugging/verification escape hatch, not a semantic knob.
	NoEvalSharing bool
	// Shard restricts the build to a deterministic slice of the scenario IDs
	// so a pool can be spread across processes or machines; the zero value
	// runs the whole pool. Shard workers write per-shard checkpoints that
	// MergeShards reassembles bit-identically to a single-process run.
	Shard ShardSpec
	// Label names the pool in traces (e.g. "HPO"); empty means "pool". It
	// never affects the run itself.
	Label string
}

// ShardSpec deterministically partitions the scenario IDs of a pool across
// Count processes: scenario i belongs to shard Index when i % Count ==
// Index. Round-robin (rather than contiguous ranges) keeps every shard's
// mix of datasets and constraint draws statistically identical, so shard
// runtimes stay balanced. The zero value means "the whole pool".
type ShardSpec struct {
	Index, Count int
}

// normalized maps the zero value to the explicit whole-pool shard 0/1.
func (s ShardSpec) normalized() ShardSpec {
	if s.Count == 0 {
		return ShardSpec{Index: 0, Count: 1}
	}
	return s
}

// Contains reports whether scenario i belongs to this shard.
func (s ShardSpec) Contains(i int) bool {
	s = s.normalized()
	return i%s.Count == s.Index
}

// Size counts this shard's scenarios in a pool of n.
func (s ShardSpec) Size(n int) int {
	s = s.normalized()
	count := n / s.Count
	if s.Index < n%s.Count {
		count++
	}
	return count
}

// validate rejects malformed shard specs.
func (s ShardSpec) Validate() error {
	n := s.normalized()
	if n.Count < 1 || n.Index < 0 || n.Index >= n.Count {
		return fmt.Errorf("bench: invalid shard %d/%d", s.Index, s.Count)
	}
	return nil
}

// String renders the "index/count" form used by the -shard flag.
func (s ShardSpec) String() string {
	s = s.normalized()
	return fmt.Sprintf("%d/%d", s.Index, s.Count)
}

// RecordSink receives each completed scenario record as soon as it is
// assembled; *CheckpointWriter implements it. Append may be called
// concurrently from scenario goroutines and must do its own locking.
type RecordSink interface {
	Append(rec *Record) error
}

// RunOptions are the crash-safety hooks of BuildPoolResumed. The zero value
// is a plain build.
type RunOptions struct {
	// Resume seeds records completed by an earlier run (loaded from a
	// checkpoint); their scenario IDs are skipped before any goroutine is
	// spawned and the records flow into the pool unchanged.
	Resume []Record
	// Sink streams each newly completed record (checkpoint appender). Sink
	// failures never kill the build: they are latched in the sink (a
	// CheckpointWriter returns the first at Close) and counted/traced, and
	// the pool completes in memory regardless.
	Sink RecordSink
	// Store is an already-open durable evaluation store (internal/evalstore)
	// whose lifecycle the caller owns; cmd/benchmark and internal/serve share
	// one across many pools. It adds a disk tier beneath every scenario's
	// trained-subset memo and replays durable hits at full simulated cost,
	// so records stay bit-identical to cold runs. Ignored when NoEvalSharing
	// is set (the store rides on the memo).
	Store *evalstore.Store
}

func (c Config) withDefaults() Config {
	if c.Scenarios == 0 {
		c.Scenarios = 60
	}
	if c.MaxEvals == 0 {
		c.MaxEvals = 120
	}
	if len(c.Datasets) == 0 {
		c.Datasets = synth.Names()
	}
	if c.Sampler == (constraint.SamplerConfig{}) {
		c.Sampler = constraint.DefaultSamplerConfig()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Record is one fuzzed ML scenario with every strategy's outcome.
type Record struct {
	// ID is the scenario index within the pool.
	ID int
	// Dataset is the Table 2 profile name.
	Dataset string
	// Model is the sampled classification model.
	Model model.Kind
	// Constraints is the sampled constraint set.
	Constraints constraint.Set
	// Results maps strategy name (incl. the Original Features baseline) to
	// its run outcome.
	Results map[string]core.RunResult
	// MetaX is the optimizer featurization of the scenario.
	MetaX []float64
	// Failures maps strategy name to the error message of a run that died
	// (panic, corrupted data, retries exhausted); such strategies are absent
	// from Results and count as unsatisfied in every analysis.
	Failures map[string]string
	// FailureKinds maps each Failures entry to its taxonomy category
	// (core.Classify), so the pool CSV, the obs failure counters, and trace
	// spans attribute a casualty with one vocabulary.
	FailureKinds map[string]core.FailureCategory
	// Err is a scenario-level failure (dataset generation, scenario
	// construction, featurization): the whole record is a casualty, excluded
	// from the analyses, and the pool carries on.
	Err string
}

// Failed reports whether the scenario itself failed (Err != "").
func (r *Record) Failed() bool { return r.Err != "" }

// Satisfiable reports whether at least one of the 16 strategies satisfied
// the scenario (the paper's denominator for coverage).
func (r *Record) Satisfiable() bool {
	for _, name := range core.StrategyNames {
		if r.Results[name].Satisfied {
			return true
		}
	}
	return false
}

// FastestStrategy returns the satisfied strategy with the lowest
// cost-at-solution (empty string if none). Ties break on Table 3 order.
func (r *Record) FastestStrategy() string {
	set := r.FastestSet()
	if len(set) == 0 {
		return ""
	}
	return set[0]
}

// FastestSet returns every satisfied strategy whose cost-at-solution ties
// the minimum (within a relative epsilon), in Table 3 order. The simulated
// cost meter makes exact ties systematic — e.g. SFS and SFFS evaluate
// identical prefixes until the first solution — where the paper's
// wall-clock measurements would split them by noise; counting all tied
// strategies as fastest avoids a deterministic-order bias.
func (r *Record) FastestSet() []string {
	bestCost := 0.0
	found := false
	for _, name := range core.StrategyNames {
		res := r.Results[name]
		if !res.Satisfied {
			continue
		}
		if !found || res.CostAtSolution < bestCost {
			bestCost = res.CostAtSolution
			found = true
		}
	}
	if !found {
		return nil
	}
	// Relative tolerance with an absolute floor: a zero-cost best (e.g. the
	// budget's free prefix already contained a solution) must still tie other
	// zero-cost strategies, and bestCost*1e-9 would collapse to 0 there.
	tol := bestCost * 1e-9
	if tol == 0 {
		tol = 1e-12
	}
	var out []string
	for _, name := range core.StrategyNames {
		res := r.Results[name]
		if res.Satisfied && res.CostAtSolution <= bestCost+tol {
			out = append(out, name)
		}
	}
	return out
}

// fastestContains reports whether the strategy ties the scenario's fastest
// solution.
func (r *Record) fastestContains(strategy string) bool {
	for _, s := range r.FastestSet() {
		if s == strategy {
			return true
		}
	}
	return false
}

// Pool is the outcome of a benchmark run.
type Pool struct {
	Config  Config
	Records []Record
	// Interrupted reports that the build was canceled before every scenario
	// ran; Records holds only the scenarios that completed.
	Interrupted bool
}

// SatisfiableIDs lists the scenarios where coverage is defined.
func (p *Pool) SatisfiableIDs() []int {
	var out []int
	for i := range p.Records {
		if p.Records[i].Satisfiable() {
			out = append(out, i)
		}
	}
	return out
}

// FailedIDs lists the scenarios that failed outright (Record.Err set).
func (p *Pool) FailedIDs() []int {
	var out []int
	for i := range p.Records {
		if p.Records[i].Failed() {
			out = append(out, i)
		}
	}
	return out
}

// datasetCache materializes each profile once per pool.
type datasetCache struct {
	mu   sync.Mutex
	data map[string]*dataset.Dataset
	seed uint64
}

func (c *datasetCache) get(name string) (*dataset.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.data[name]; ok {
		return d, nil
	}
	p, err := synth.ByName(name)
	if err != nil {
		return nil, err
	}
	d, err := synth.GenerateDataset(&p, c.seed)
	if err != nil {
		return nil, err
	}
	c.data[name] = d
	return d, nil
}

// getDataset regenerates a profile's dataset deterministically; generation
// is cheap relative to strategy runs, so post-hoc analyses (Table 7,
// figures) regenerate instead of holding pool-lifetime references.
func getDataset(seed uint64, name string) (*dataset.Dataset, error) {
	p, err := synth.ByName(name)
	if err != nil {
		return nil, err
	}
	return synth.GenerateDataset(&p, seed)
}

// BuildPool fuzzes cfg.Scenarios ML scenarios and runs all 16 strategies
// plus the Original Features baseline on each. Scenario sampling and
// execution are deterministic in cfg.Seed; scenarios run in parallel.
func BuildPool(cfg Config) (*Pool, error) {
	return BuildPoolResumed(context.Background(), cfg, RunOptions{})
}

// BuildPoolResumed is BuildPool with cancellation, graceful degradation and
// crash-safety hooks. A failing strategy or scenario is recorded
// (Record.Failures / Record.Err) instead of sinking the whole multi-minute
// pool, and canceling ctx stops in-flight strategy runs at their next charge
// point, returning the completed prefix with Pool.Interrupted set. An error
// is returned only when nothing survives — every completed scenario failed.
//
// Records in opts.Resume are adopted without re-execution (their IDs never
// spawn a scenario goroutine), each newly completed record is streamed to
// opts.Sink, and cfg.Shard restricts which scenario IDs run at all.
// Because scenario execution is order-independent, the assembled pool is
// bit-identical to an uninterrupted single-process BuildPool regardless of
// how the records were split between Resume and live execution.
func BuildPoolResumed(ctx context.Context, cfg Config, opts RunOptions) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Shard.Validate(); err != nil {
		return nil, err
	}
	po, ctx := newPoolObs(ctx, cfg)
	cache := &datasetCache{data: make(map[string]*dataset.Dataset), seed: cfg.Seed}
	records := make([]Record, cfg.Scenarios)
	done := make([]bool, cfg.Scenarios)

	// Adopt resumed records before spawning anything, so the scheduler skips
	// their IDs and the obs invariant (resumed + executed == shard size)
	// holds by construction.
	for idx := range opts.Resume {
		rec := opts.Resume[idx]
		if rec.ID < 0 || rec.ID >= cfg.Scenarios {
			return nil, fmt.Errorf("bench: resumed scenario ID %d outside [0,%d)", rec.ID, cfg.Scenarios)
		}
		if !cfg.Shard.Contains(rec.ID) {
			return nil, fmt.Errorf("bench: resumed scenario %d does not belong to shard %s", rec.ID, cfg.Shard)
		}
		if done[rec.ID] {
			return nil, fmt.Errorf("bench: resumed scenario %d appears twice", rec.ID)
		}
		records[rec.ID] = rec
		done[rec.ID] = true
		po.resumeSkip(&records[rec.ID])
	}

	// Two-level scheduling under one worker budget: scenarios is the
	// admission bound (at most Workers scenarios in flight, so small pools
	// don't strand cores behind a long scenario) and slots is the execution
	// bound shared by every strategy run of every admitted scenario. A
	// scenario goroutine never holds an execution slot itself — it only
	// samples, fans out, and assembles — so scenario admission can never
	// deadlock against strategy execution.
	var wg sync.WaitGroup
	scenarios := make(chan struct{}, cfg.Workers)
	slots := make(chan struct{}, cfg.Workers)
	for i := 0; i < cfg.Scenarios && ctx.Err() == nil; i++ {
		if !cfg.Shard.Contains(i) || done[i] {
			continue
		}
		wg.Add(1)
		scenarios <- struct{}{}
		if po != nil {
			po.scenariosInFlight.Add(1)
		}
		go func(i int) {
			defer wg.Done()
			defer func() {
				if po != nil {
					po.scenariosInFlight.Add(-1)
				}
				<-scenarios
			}()
			rec, err := runScenario(ctx, cfg, cache, i, slots, po, opts.Store)
			if err != nil {
				// Only cancellation aborts a scenario without a record;
				// everything else is recorded inside rec.
				return
			}
			records[i] = rec
			done[i] = true
			po.scenarioExecuted()
			if opts.Sink != nil {
				po.checkpointWrite(&records[i], opts.Sink.Append(&records[i]))
			}
		}(i)
	}
	wg.Wait()

	pool := &Pool{Config: cfg, Interrupted: ctx.Err() != nil}
	failed := 0
	for i := range records {
		if !done[i] {
			continue
		}
		if records[i].Failed() {
			failed++
		}
		pool.Records = append(pool.Records, records[i])
	}
	po.endPool(pool)
	if !pool.Interrupted && failed == len(pool.Records) && failed > 0 {
		return nil, fmt.Errorf("bench: all %d scenarios failed; first: %s", failed, pool.Records[0].Err)
	}
	return pool, nil
}

// runScenario samples and executes scenario i, running its strategy runs
// concurrently on the pool-wide execution slots. The returned error is
// non-nil only for cancellation; operational failures are recorded in the
// Record so the pool degrades instead of dying.
func runScenario(ctx context.Context, cfg Config, cache *datasetCache, i int, slots chan struct{}, po *poolObs, store *evalstore.Store) (rec Record, err error) {
	rng := xrand.NewStream(cfg.Seed, uint64(i)*2+1)
	name := cfg.Datasets[rng.Intn(len(cfg.Datasets))]
	kind := model.Kinds[rng.Intn(len(model.Kinds))]
	cs := constraint.Sample(rng, cfg.Sampler)

	rec = Record{
		ID:          i,
		Dataset:     name,
		Model:       kind,
		Constraints: cs,
	}
	ctx = po.scenarioSpan(ctx, &rec)
	defer func() { po.endScenario(ctx, &rec, err) }()
	d, err := cache.get(name)
	if err != nil {
		rec.Err = fmt.Sprintf("dataset %s: %v", name, err)
		return rec, nil
	}
	scn, err := core.NewScenario(d, kind, cs, cfg.HPO, cfg.Mode, cfg.Seed^uint64(i))
	if err != nil {
		rec.Err = fmt.Sprintf("scenario on %s: %v", name, err)
		return rec, nil
	}

	// Store-aware scheduling: a warm durable store may hold this exact
	// scenario's completed record (same content hash, pool seed, scenario ID,
	// budget — see recordCacheKey). Replaying it skips the strategy scheduler
	// and featurization entirely; the JSON round trip is bit-exact, so the
	// replayed record is identical to a live run's.
	var scnHash uint64
	if store != nil && !cfg.NoEvalSharing {
		scnHash = scn.ContentHash()
		if cached, ok := lookupCachedRecord(store, cfg, scnHash, i); ok {
			po.durableSkip(ctx, &cached)
			return cached, nil
		}
	}

	// Every strategy of the scenario runs under the same seed against a
	// shared trained-subset memo: identical subsets train once, physically,
	// while every member's simulated meter still pays full price (see
	// core.SharedMemo). The seed-pinned memo key keeps transient retries
	// (perturbed seeds) on private entries.
	var memo *core.SharedMemo
	if !cfg.NoEvalSharing {
		memo = core.NewSharedMemo()
		if store != nil {
			// The durable tier completes the memo key's content address with
			// the scenario hash, so only a scenario with identical split
			// bytes, constraints, and seed (a rerun, a resumed shard, a
			// restarted daemon job) ever shares entries.
			memo.AttachDurable(store, scnHash)
		}
	}
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	results := make([]core.RunResult, len(names))
	errs := make([]error, len(names))
	var wg sync.WaitGroup
	for j := range names {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			select {
			case slots <- struct{}{}:
				if po != nil {
					po.slotsInFlight.Add(1)
				}
				defer func() {
					if po != nil {
						po.slotsInFlight.Add(-1)
					}
					<-slots
				}()
			case <-ctx.Done():
				errs[j] = ctx.Err()
				return
			}
			s, err := newPoolStrategy(names[j])
			if err != nil {
				// Static names; a failure here is a programming error worth
				// recording, not worth killing the pool for.
				errs[j] = err
				return
			}
			results[j], errs[j] = core.RunStrategy(
				ctx, s, scn, nil, memo, cfg.Seed^(uint64(i)<<8), cfg.MaxEvals)
		}(j)
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return Record{}, cerr
	}
	rec.Results = make(map[string]core.RunResult, len(names))
	for j, sName := range names {
		if errs[j] != nil {
			po.strategyFailed(ctx, sName, errs[j])
			rec.failStrategy(sName, errs[j])
			continue
		}
		rec.Results[sName] = results[j]
	}
	metaX, err := optimizer.Featurize(scn, rng.Split())
	if err != nil {
		rec.Err = fmt.Sprintf("featurize: %v", err)
		return rec, nil
	}
	rec.MetaX = metaX
	if store != nil && !cfg.NoEvalSharing {
		// Cache the finished record so later pools (or a warm fan-out over a
		// shared store) replay the whole scenario without training.
		putCachedRecord(store, cfg, scnHash, &rec)
	}
	return rec, nil
}

// newPoolStrategy builds pool strategies by name; tests swap it to inject
// deterministic faults into pool runs.
var newPoolStrategy = core.New

// failStrategy records a strategy-run casualty: the message for humans and
// the Classify category for analyses and metrics.
func (r *Record) failStrategy(name string, err error) {
	if r.Failures == nil {
		r.Failures = make(map[string]string)
		r.FailureKinds = make(map[string]core.FailureCategory)
	}
	r.Failures[name] = err.Error()
	r.FailureKinds[name] = core.Classify(err)
}

// poolObs bundles the pool-level observability handles. A nil *poolObs is
// the disabled state; every method is nil-safe so instrumentation points
// stay single checks.
type poolObs struct {
	rt   *obs.Runtime
	span obs.SpanID

	scenariosInFlight *obs.Gauge // admission-level occupancy
	slotsInFlight     *obs.Gauge // execution-level occupancy (strategy runs)
	scenarioFailures  *obs.Counter
	degraded          *obs.Counter // strategy casualties absorbed by degradation
	resumed           *obs.Counter // scenarios adopted from a checkpoint
	executed          *obs.Counter // scenarios run live (resumed+executed == shard size)
	skippedDurable    *obs.Counter // scenarios replayed whole from the durable store
	ckptWrites        *obs.Counter
	ckptWriteErrs     *obs.Counter
}

func newPoolObs(ctx context.Context, cfg Config) (*poolObs, context.Context) {
	rt := obs.FromContext(ctx)
	if rt == nil {
		return nil, ctx
	}
	label := cfg.Label
	if label == "" {
		label = "pool"
	}
	attrs := []obs.Attr{
		obs.Str("label", label),
		obs.Int("scenarios", int64(cfg.Scenarios)),
		obs.Int("workers", int64(cfg.Workers)),
		obs.Bool("eval_sharing", !cfg.NoEvalSharing),
	}
	if cfg.Shard.normalized().Count > 1 {
		attrs = append(attrs, obs.Str("shard", cfg.Shard.String()))
	}
	span := rt.Tracer().StartSpan(obs.SpanFromContext(ctx), "pool", attrs...)
	m := rt.Metrics()
	m.Counter("pool.scenarios_planned").Add(int64(cfg.Shard.Size(cfg.Scenarios)))
	p := &poolObs{
		rt:                rt,
		span:              span,
		scenariosInFlight: m.Gauge("pool.inflight.scenarios"),
		slotsInFlight:     m.Gauge("pool.inflight.strategies"),
		scenarioFailures:  m.Counter("pool.scenario_failures"),
		degraded:          m.Counter("pool.degraded_strategies"),
		resumed:           m.Counter("pool.checkpoint.resumed"),
		executed:          m.Counter("pool.scenarios_executed"),
		skippedDurable:    m.Counter("pool.schedule.skipped_durable"),
		ckptWrites:        m.Counter("pool.checkpoint.writes"),
		ckptWriteErrs:     m.Counter("pool.checkpoint.write_errors"),
	}
	return p, obs.ContextWithSpan(ctx, span)
}

// resumeSkip records a scenario adopted from a checkpoint: the resumed
// counter counts it as done work of this pool, and a resume_skip event shows
// in the trace which IDs never ran.
func (p *poolObs) resumeSkip(rec *Record) {
	if p == nil {
		return
	}
	p.resumed.Inc()
	p.rt.Tracer().Event(p.span, "resume_skip",
		obs.Int("scenario_id", int64(rec.ID)),
		obs.Bool("failed", rec.Failed()))
}

// durableSkip records a scenario whose whole record was replayed from the
// durable store without entering the strategy scheduler. The scenario still
// counts as executed (it completed in this process — skipping is a cache
// effect, like memo hits, not a resume), so the resumed+executed invariant
// is untouched; the counter and span event expose how much work the warm
// store saved.
func (p *poolObs) durableSkip(ctx context.Context, rec *Record) {
	if p == nil {
		return
	}
	p.skippedDurable.Inc()
	p.rt.Tracer().Event(obs.SpanFromContext(ctx), "skipped_durable",
		obs.Int("scenario_id", int64(rec.ID)))
}

// scenarioExecuted counts a scenario completed live in this process, the
// complement of resumeSkip: resumed + executed == shard size on a full run.
func (p *poolObs) scenarioExecuted() {
	if p == nil {
		return
	}
	p.executed.Inc()
}

// checkpointWrite records one streamed checkpoint append (err from
// RecordSink.Append). Failed appends are counted separately and flagged on
// the event; the build itself carries on (the sink latches its error).
func (p *poolObs) checkpointWrite(rec *Record, err error) {
	if p == nil {
		return
	}
	attrs := []obs.Attr{obs.Int("scenario_id", int64(rec.ID))}
	if err != nil {
		p.ckptWriteErrs.Inc()
		attrs = append(attrs, obs.Str("error", err.Error()))
	} else {
		p.ckptWrites.Inc()
	}
	p.rt.Tracer().Event(p.span, "checkpoint_write", attrs...)
}

// endPool closes the pool span.
func (p *poolObs) endPool(pool *Pool) {
	if p == nil {
		return
	}
	status := "done"
	if pool.Interrupted {
		status = "interrupted"
	}
	p.rt.Tracer().EndSpan(p.span,
		obs.Str("status", status),
		obs.Int("records", int64(len(pool.Records))))
}

// scenarioSpan opens one scenario's span under the pool span.
func (p *poolObs) scenarioSpan(ctx context.Context, rec *Record) context.Context {
	if p == nil {
		return ctx
	}
	span := p.rt.Tracer().StartSpan(obs.SpanFromContext(ctx), "scenario",
		obs.Int("scenario_id", int64(rec.ID)),
		obs.Str("dataset", rec.Dataset),
		obs.Str("model", string(rec.Model)),
		obs.Str("constraints", rec.Constraints.String()))
	return obs.ContextWithSpan(ctx, span)
}

// endScenario closes a scenario span and counts a failed scenario. Canceled
// scenarios (err != nil) end the span but count nowhere: they left no record.
func (p *poolObs) endScenario(ctx context.Context, rec *Record, err error) {
	if p == nil {
		return
	}
	span := obs.SpanFromContext(ctx)
	if err != nil {
		p.rt.Tracer().EndSpan(span, obs.Str("status", "canceled"))
		return
	}
	status := "done"
	if rec.Failed() {
		status = "failed"
		p.scenarioFailures.Inc()
	}
	p.rt.Tracer().EndSpan(span,
		obs.Str("status", status),
		obs.Int("strategy_failures", int64(len(rec.Failures))))
}

// strategyFailed counts a strategy-run casualty and emits a degradation
// event on the scenario span, so the trace shows where the portfolio shrank.
func (p *poolObs) strategyFailed(ctx context.Context, name string, err error) {
	if p == nil {
		return
	}
	p.degraded.Inc()
	p.rt.Tracer().Event(obs.SpanFromContext(ctx), "degradation",
		obs.Str("strategy", name),
		obs.Str("category", string(core.Classify(err))))
}

// ProgressLine renders the pool counters of a metrics snapshot as one
// progress line. The counts are cumulative over every pool build started
// against the registry, and each build adds its shard size to the planned
// total, so done reaches planned only when every build completed: a
// scenario is done once resumed or executed, and strategy.runs counts runs
// as they start, so the line says "started".
func ProgressLine(snap obs.Snapshot) string {
	return fmt.Sprintf("# pools: %d/%d scenarios done (%d failed), %d strategy runs started (%d degraded)",
		snap.Counter("pool.checkpoint.resumed")+snap.Counter("pool.scenarios_executed"),
		snap.Counter("pool.scenarios_planned"),
		snap.Counter("pool.scenario_failures"),
		snap.Counter("strategy.runs"),
		snap.Counter("pool.degraded_strategies"))
}
