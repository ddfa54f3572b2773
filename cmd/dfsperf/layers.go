package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/ranking"
	"github.com/declarative-fs/dfs/internal/search"
	"github.com/declarative-fs/dfs/internal/serve"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Roles of the runtimes and pool builders a traced run instruments.
const (
	roleLocal       = "local"       // in-process pool builds, or the single dfsd
	roleWorker      = "worker"      // fan-out worker daemons
	roleCoordinator = "coordinator" // the fan-out coordinator
)

// maxProbeInputs caps how many of a workload's splits the probe phase ranks.
const maxProbeInputs = 4

// tracing collects what a traced run measures at the layer boundaries: the
// obs runtimes attached to the system, timing wrappers around every pool
// builder and record sink, the clients' per-job timestamps, the store opens
// and closes, and the probe phase. Every method is a no-op on a nil
// *tracing, which is how untraced runs call them.
type tracing struct {
	mu         sync.Mutex
	local      *obs.Runtime
	rts        []*obs.Runtime
	rtRoles    []string
	cols       []*spanCollector
	builds     []*buildRec
	appends    []float64
	jobs       []jobRec
	opens      []float64
	closes     []float64
	recordTier []float64
	evalTierB  []float64 // eval-tier rebuild times
	evalTierN  int       // eval-tier rebuilds
	evalCPU    float64   // CPU seconds of the eval-tier rebuilds
	evalHits   uint64    // and their store lookups' hits
	evalMisses uint64    // and misses
	puts       uint64    // evalstore.Stats().Puts deltas of the stores the benchmark opens
	probes     map[string][]float64
	// round numbers the set-ups, so that builds and jobs of different
	// rounds' daemons, which reuse job IDs, are told apart.
	round int
}

func newTracing() *tracing {
	return &tracing{probes: make(map[string][]float64)}
}

// runtime builds an obs runtime for one role. Untraced, it is the runtime a
// daemon builds for itself (a tracer feeding bc), or nil for an in-process
// pool build; traced, its span stream is also collected.
func (t *tracing) runtime(role string, bc *obs.BroadcastSink) *obs.Runtime {
	var sinks obs.MultiSink
	if bc != nil {
		sinks = append(sinks, bc)
	}
	if t == nil {
		if bc == nil {
			return nil
		}
		return obs.New(obs.WithTracer(obs.NewTracer(bc)))
	}
	col := &spanCollector{role: role, open: make(map[uint64]int64)}
	sinks = append(sinks, col)
	rt := obs.New(obs.WithTracer(obs.NewTracer(sinks)))
	t.mu.Lock()
	t.rts = append(t.rts, rt)
	t.rtRoles = append(t.rtRoles, role)
	t.cols = append(t.cols, col)
	t.mu.Unlock()
	return rt
}

// nextRound starts a new round and returns its number (0 untraced).
func (t *tracing) nextRound() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.round++
	return t.round
}

// attachLocal creates the runtime in-process pool builds carry, once per
// traced measurement; a pool workload's set-up calls it before any build
// starts.
func (t *tracing) attachLocal() {
	if t != nil && t.local == nil {
		t.local = t.runtime(roleLocal, nil)
	}
}

// context carries the in-process runtime into a pool build.
func (t *tracing) context(ctx context.Context) context.Context {
	if t == nil {
		return ctx
	}
	return obs.NewContext(ctx, t.local)
}

// registry is the in-process runtime's metrics registry (nil untraced).
func (t *tracing) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.local.Metrics()
}

// buildRec is one wrapped pool build.
type buildRec struct {
	role        string
	round       int
	label       string
	seed        uint64
	workers     int
	start, end  time.Time
	firstAppend time.Time
}

// wrap times every call of a pool builder and every append to its record
// sink, and tags each build with the current round. workers is the build's
// slot count (0: the config's, defaulting to GOMAXPROCS as bench does).
func (t *tracing) wrap(inner serve.PoolBuilder, role string, workers int) serve.PoolBuilder {
	if t == nil {
		return inner
	}
	t.mu.Lock()
	round := t.round
	t.mu.Unlock()
	return func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		w := workers
		if w == 0 {
			w = cfg.Workers
		}
		if w == 0 {
			w = runtime.GOMAXPROCS(0)
		}
		rec := &buildRec{role: role, round: round, label: cfg.Label, seed: cfg.Seed, workers: w, start: time.Now()}
		opts.Sink = &timedSink{inner: opts.Sink, t: t, rec: rec}
		p, err := inner(ctx, cfg, opts)
		rec.end = time.Now()
		t.mu.Lock()
		t.builds = append(t.builds, rec)
		t.mu.Unlock()
		return p, err
	}
}

// timedSink notes the first append to a build's record sink and times each
// append to the sink it wraps, a daemon's checkpoint writer; an in-process
// build has none.
type timedSink struct {
	inner bench.RecordSink
	t     *tracing
	rec   *buildRec
	mu    sync.Mutex
}

func (s *timedSink) Append(r *bench.Record) error {
	start := time.Now()
	s.mu.Lock()
	if s.rec.firstAppend.IsZero() {
		s.rec.firstAppend = start
	}
	s.mu.Unlock()
	if s.inner == nil {
		return nil
	}
	err := s.inner.Append(r)
	d := time.Since(start).Seconds()
	s.t.mu.Lock()
	s.t.appends = append(s.t.appends, d)
	s.t.mu.Unlock()
	return err
}

func (t *tracing) timeOpen(d time.Duration) {
	if t != nil {
		t.mu.Lock()
		t.opens = append(t.opens, d.Seconds())
		t.mu.Unlock()
	}
}

func (t *tracing) timeClose(d time.Duration) {
	if t != nil {
		t.mu.Lock()
		t.closes = append(t.closes, d.Seconds())
		t.mu.Unlock()
	}
}

func (t *tracing) storeDelta(before, after evalstore.Stats) {
	if t != nil {
		t.mu.Lock()
		t.puts += after.Puts - before.Puts
		t.mu.Unlock()
	}
}

func (t *tracing) recordTierBuild(d time.Duration) {
	t.mu.Lock()
	t.recordTier = append(t.recordTier, d.Seconds())
	t.mu.Unlock()
}

func (t *tracing) evalTierBuild(d time.Duration) {
	t.mu.Lock()
	t.evalTierB = append(t.evalTierB, d.Seconds())
	t.mu.Unlock()
}

// evalTier accounts one eval-tier replay: its CPU seconds, its builds and
// the store's statistics around it.
func (t *tracing) evalTier(cpu float64, builds int, before, after evalstore.Stats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.evalCPU += cpu
	t.evalTierN += builds
	t.evalHits += after.HitsDisk - before.HitsDisk
	t.evalMisses += after.Misses - before.Misses
}

func (t *tracing) addJob(j jobRec) {
	if t != nil {
		t.mu.Lock()
		t.jobs = append(t.jobs, j)
		t.mu.Unlock()
	}
}

func (t *tracing) addProbe(name string, d time.Duration) {
	t.mu.Lock()
	t.probes[name] = append(t.probes[name], d.Seconds())
	t.mu.Unlock()
}

// spanCollector keeps one tracer's span stream in memory, to be written out
// when the run ends, and sums strategy_run span durations as it goes.
type spanCollector struct {
	role  string
	mu    sync.Mutex
	lines bytes.Buffer
	open  map[uint64]int64 // strategy_run span → start ts
	busy  time.Duration
	runs  int
}

var (
	startPrefix = []byte(`{"t":"start"`)
	endPrefix   = []byte(`{"t":"end"`)
)

// Emit implements obs.Sink.
func (c *spanCollector) Emit(line []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines.Write(line)
	var s struct {
		ID   uint64 `json:"id"`
		Name string `json:"name"`
		TS   int64  `json:"ts"`
	}
	switch {
	case bytes.HasPrefix(line, startPrefix):
		if bytes.Contains(line, []byte(`"name":"strategy_run"`)) && json.Unmarshal(line, &s) == nil {
			c.open[s.ID] = s.TS
		}
	case bytes.HasPrefix(line, endPrefix):
		if len(c.open) > 0 && json.Unmarshal(line, &s) == nil {
			if t0, ok := c.open[s.ID]; ok {
				c.busy += time.Duration(s.TS - t0)
				c.runs++
				delete(c.open, s.ID)
			}
		}
	}
	return nil
}

// writeTrace writes each collected span stream to its own JSONL file (span
// IDs are per tracer) and returns the paths.
func (t *tracing) writeTrace(dir, workload string, seed uint64) (string, error) {
	var paths []string
	for i, c := range t.cols {
		path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d-%s%d.jsonl", workload, seed, c.role, i))
		c.mu.Lock()
		err := os.WriteFile(path, c.lines.Bytes(), 0o644)
		c.mu.Unlock()
		if err != nil {
			return "", err
		}
		paths = append(paths, path)
	}
	return strings.Join(paths, " "), nil
}

// probeInput is one training split the probe phase works on.
type probeInput struct {
	train    *dataset.Dataset
	kind     model.Kind
	seed     uint64
	generate time.Duration // synth.GenerateDataset time for its dataset
}

// zeroObjective is a search objective that costs nothing to evaluate, so a
// driver's own per-trial cost is all that is timed.
type zeroObjective struct{ p, calls int }

func (o *zeroObjective) NumFeatures() int { return o.p }

func (o *zeroObjective) Evaluate(mask []bool) (float64, bool, error) {
	o.calls++
	n := 0
	for _, m := range mask {
		if m {
			n++
		}
	}
	return float64(n) / float64(o.p), false, nil
}

// probe times the layers a pool build calls many times from inside, on the
// workload's own training splits: each ranking family, a TPE trial, dataset
// generation, and an open and close of the workload's store (of freshStore
// when it has none).
func (t *tracing) probe(ctx context.Context, tb testbed, freshStore string) error {
	inputs, err := tb.probeInputs()
	if err != nil {
		return err
	}
	for _, in := range inputs[:min(len(inputs), maxProbeInputs)] {
		if err := ctx.Err(); err != nil {
			return err
		}
		t.addProbe("synth.generate_s", in.generate)
		rankers := []ranking.Ranker{
			ranking.Variance{}, ranking.Chi2{}, ranking.Fisher{}, ranking.MIM{}, ranking.FCBF{},
			ranking.ReliefF{}, ranking.MCFS{}, &ranking.ModelImportance{Spec: model.Spec{Kind: in.kind}},
		}
		for _, r := range rankers {
			start := time.Now()
			// A ranker can fail on a degenerate split (MCFS's embedding); the
			// pool retries those, the probe leaves them out of the median.
			if _, err := r.Rank(in.train, xrand.New(in.seed)); err == nil {
				t.addProbe("ranking."+r.Name()+".rank_s", time.Since(start))
			}
		}
		obj := &zeroObjective{p: in.train.Features()}
		order := make([]int, obj.p)
		for i := range order {
			order[i] = i
		}
		start := time.Now()
		if err := search.TPETopK(obj, order, search.TPEConfig{}, xrand.New(in.seed)); err != nil {
			return err
		}
		if obj.calls > 0 {
			t.addProbe("search.tpe.trial_s", time.Since(start)/time.Duration(obj.calls))
		}
	}
	dir := tb.storeDir()
	if dir == "" {
		dir = freshStore
	}
	start := time.Now()
	st, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		return err
	}
	t.timeOpen(time.Since(start))
	start = time.Now()
	if err := st.Close(); err != nil {
		return err
	}
	t.timeClose(time.Since(start))
	return nil
}

// counter sums a counter over the runtimes of the given roles (all when
// none are given).
func counter(snaps []roleSnap, name string, roles ...string) float64 {
	total := 0.0
	for _, s := range snaps {
		if len(roles) == 0 || slices.Contains(roles, s.role) {
			total += float64(s.snap.Counter(name))
		}
	}
	return total
}

type roleSnap struct {
	role string
	snap obs.Snapshot
}

func (t *tracing) snapshots() []roleSnap {
	out := make([]roleSnap, len(t.rts))
	for i, rt := range t.rts {
		out[i] = roleSnap{t.rtRoles[i], rt.Metrics().Snapshot()}
	}
	return out
}

// histSum adds up count and sum of every histogram whose name starts with
// prefix, over all runtimes.
func histSum(snaps []roleSnap, prefix string) (count, total float64) {
	for _, s := range snaps {
		for name, h := range s.snap.Histograms {
			if strings.HasPrefix(name, prefix) {
				count += float64(h.Count)
				total += h.Sum
			}
		}
	}
	return count, total
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns everything the traced run collected into the per-layer
// metrics, and prints the reconciliation of the layers against the
// end-to-end time with its unattributed remainder.
func (t *tracing) layerMetrics(e *env, bare, traced *phase) map[string]float64 {
	snaps := t.snapshots()
	ops := float64(traced.ops())
	perOp := func(v float64) float64 { return ratio(v, ops) }
	m := make(map[string]float64)
	set := func(name string, v float64) { m[name] = v }

	// bench: the pool builds themselves (in-process, or inside daemons).
	type roundJob struct {
		round int
		id    string
	}
	var buildDur, firstRec []float64
	var slotCap float64
	frontBuild := make(map[roundJob]*buildRec)
	var coordBuilds, workerBuilds []*buildRec
	for _, b := range t.builds {
		switch b.role {
		case roleCoordinator:
			coordBuilds = append(coordBuilds, b)
			frontBuild[roundJob{b.round, b.label}] = b
			continue
		case roleWorker:
			workerBuilds = append(workerBuilds, b)
		default:
			frontBuild[roundJob{b.round, b.label}] = b
		}
		d := b.end.Sub(b.start).Seconds()
		buildDur = append(buildDur, d)
		slotCap += d * float64(b.workers)
		if !b.firstAppend.IsZero() {
			firstRec = append(firstRec, b.firstAppend.Sub(b.start).Seconds())
		}
	}
	var busy time.Duration
	runs := 0
	for _, c := range t.cols {
		c.mu.Lock()
		busy += c.busy
		runs += c.runs
		c.mu.Unlock()
	}
	set("bench.build_s", median(buildDur))
	set("bench.builds", perOp(float64(len(buildDur))))
	set("bench.slot_busy_share", ratio(busy.Seconds(), slotCap))
	set("bench.first_record_s", median(firstRec))
	appendTail, appendTailName := tail(t.appends)
	set("bench.checkpoint_append_p50_s", median(t.appends))
	set("bench.checkpoint_append_tail_s", appendTail)
	set("bench.checkpoint_appends", perOp(float64(len(t.appends))))
	executed := counter(snaps, "pool.scenarios_executed", roleLocal, roleWorker)
	set("bench.skipped_durable_share", ratio(counter(snaps, "pool.schedule.skipped_durable", roleLocal, roleWorker), executed))
	set("bench.eval_tier_build_s", median(t.evalTierB))
	set("bench.eval_tier_cpu_ms", 1000*ratio(t.evalCPU, float64(t.evalTierN)))
	set("bench.record_tier_build_s", median(t.recordTier))

	// core and model: strategy runs, the shared memo, training.
	trains, trainS := histSum(snaps, "train.seconds.")
	busyPerOp := perOp(busy.Seconds())
	set("core.strategy_runs", perOp(counter(snaps, "strategy.runs")))
	set("core.strategy_busy_s", busyPerOp)
	set("core.strategy_self_s", busyPerOp-perOp(trainS))
	hits, misses := counter(snaps, "memo.hits"), counter(snaps, "memo.misses")
	set("core.memo.hit_share", ratio(hits, hits+misses))
	set("core.memo.waits", perOp(counter(snaps, "memo.waits")))
	trained := counter(snaps, "evals.trained")
	set("core.evals", perOp(trained+counter(snaps, "evals.replayed")+counter(snaps, "evals.cached")))
	set("core.evals.trained", perOp(trained))
	set("model.train_s", perOp(trainS))
	set("model.trains", perOp(trains))
	for _, k := range model.Kinds {
		_, s := histSum(snaps, "train.seconds."+string(k))
		set("model.train_s."+string(k), perOp(s))
	}

	// ranking, search, synth: the probe phase.
	for _, name := range probeMetricNames() {
		set(name, median(t.probes[name]))
	}

	// evalstore.
	set("evalstore.open_s", median(t.opens))
	set("evalstore.close_s", median(t.closes))
	evalLookups := float64(t.evalHits + t.evalMisses)
	set("evalstore.lookups", ratio(evalLookups, float64(t.evalTierN)))
	set("evalstore.hit_share", ratio(float64(t.evalHits), evalLookups))
	set("evalstore.puts", perOp(float64(t.puts)))
	set("evalstore.wal_bytes", perOp(counter(snaps, "evalstore.wal_bytes")))

	// serve: the client's view of each job, split at the front daemon's
	// build (the daemon's own, or the coordinator's fan-out).
	var submit, jobLat, firstRow, tails, frontDur []float64
	for _, j := range t.jobs {
		submit = append(submit, j.postEnd.Sub(j.postStart).Seconds())
		jobLat = append(jobLat, j.lastByte.Sub(j.postStart).Seconds())
		firstRow = append(firstRow, j.firstRow.Sub(j.postStart).Seconds())
		if b := frontBuild[roundJob{j.round, j.id}]; b != nil {
			tails = append(tails, j.lastByte.Sub(b.end).Seconds())
			frontDur = append(frontDur, b.end.Sub(b.start).Seconds())
		}
	}
	// The front daemon is the one clients talk to: the coordinator when
	// there is one, else the single dfsd.
	front := roleLocal
	if len(coordBuilds) > 0 {
		front = roleCoordinator
	}
	var waitCount, waitSum float64
	for _, s := range snaps {
		if s.role == front {
			h := s.snap.Histograms["serve.job.queue_wait_seconds"]
			waitCount += float64(h.Count)
			waitSum += h.Sum
		}
	}
	queueWait := ratio(waitSum, waitCount)
	submitTail, _ := tail(submit)
	jobTail, jobTailName := tail(jobLat)
	set("serve.submit_p50_s", median(submit))
	set("serve.submit_tail_s", submitTail)
	set("serve.first_record_p50_s", median(firstRow))
	set("serve.queue_wait_s", queueWait)
	set("serve.overhead_s", mean(jobLat)-mean(frontDur))
	set("serve.stream_tail_s", median(tails))
	set("serve.job_tail_s", jobTail)
	set("serve.rejected", counter(snaps, "serve.queue.rejected"))
	set("serve.job.failed", counter(snaps, "serve.job.failed"))
	set("serve.job.retried", counter(snaps, "serve.job.retried"))

	// serve fan-out: dispatch latency and worker occupancy.
	var dispatch []float64
	for _, c := range coordBuilds {
		var first time.Time
		for _, w := range workerBuilds {
			if w.round == c.round && w.seed == c.seed && !w.start.Before(c.start) && (first.IsZero() || w.start.Before(first)) {
				first = w.start
			}
		}
		if !first.IsZero() {
			dispatch = append(dispatch, first.Sub(c.start).Seconds())
		}
	}
	var workerBusy float64
	for _, w := range workerBuilds {
		workerBusy += w.end.Sub(w.start).Seconds()
	}
	set("serve.fanout.dispatch_s", median(dispatch))
	_, tracedWall := traced.work()
	set("serve.fanout.worker_busy_share", ratio(workerBusy, tracedWall.Seconds()*fanWorkers))
	set("serve.fanout.shards_dispatched", perOp(counter(snaps, "serve.fanout.shards_dispatched")))
	set("serve.fanout.shards_requeued", counter(snaps, "serve.fanout.shards_requeued"))
	set("serve.fanout.records_streamed", perOp(counter(snaps, "serve.fanout.records_streamed")))
	set("serve.fanout.probe_failures", counter(snaps, "serve.fanout.probe_failures"))
	set("serve.fanout.stream_fallbacks", counter(snaps, "serve.fanout.stream_fallbacks"))

	// The wall-clock end-to-end figures, obs and the Go runtime, read from
	// the untraced half.
	opTail, opTailName := tail(bare.latencies)
	set("wall.ops_per_s", bare.opsPerSecond())
	set("wall.op_p50_s", median(bare.latencies))
	set("wall.op_tail_s", opTail)
	bareCPU, _ := bare.work()
	set("cpu.user_ms_per_op", 1000*bare.userCPUPerOp())
	set("cpu.total_ms_per_op", 1000*ratio(bareCPU.work(), float64(bare.ops())))
	set("cpu.system_ms_per_op", 1000*ratio(bareCPU.system, float64(bare.ops())))
	set("obs.trace_overhead", ratio(bare.opsPerSecond(), traced.opsPerSecond())-1)
	set("go.alloc_mb_per_op", ratio((bare.goEnd.allocBytes-bare.goStart.allocBytes)/(1<<20), float64(bare.ops())))
	set("go.gc_cpu_share", ratio(bare.goEnd.gcCPU-bare.goStart.gcCPU, bare.whole.proc))

	// Reconciliation. A pool build's slots are either running a strategy or
	// not; a served job's time is submit + queue wait + build + stream tail.
	var unattributed float64
	if len(t.jobs) > 0 {
		job := mean(jobLat)
		rest := job - mean(submit) - queueWait - mean(frontDur) - mean(tails)
		unattributed = ratio(rest, job)
		e.logf("reconcile: job %.6fs = submit %.6fs + queue wait %.6fs + build %.6fs + stream tail %.6fs + unattributed %.6fs (%.1f%%)",
			job, mean(submit), queueWait, mean(frontDur), mean(tails), rest, 100*unattributed)
	} else {
		idle := slotCap - busy.Seconds()
		unattributed = ratio(idle, slotCap)
		e.logf("reconcile: train %.6fs + self %.6fs = strategy busy %.6fs per op (%d strategy runs)",
			perOp(trainS), busyPerOp-perOp(trainS), busyPerOp, runs)
		e.logf("reconcile: build slots %.6fs = strategy runs %.6fs + unattributed %.6fs (%.1f%%: scheduling, featurization, dataset generation, idle slots)",
			slotCap, busy.Seconds(), idle, 100*unattributed)
	}
	set("reconcile.unattributed_share", unattributed)
	e.logf("tails: operation %s (n=%d), checkpoint append %s (n=%d), job %s (n=%d)",
		opTailName, len(bare.latencies), appendTailName, len(t.appends), jobTailName, len(jobLat))
	return m
}

// probeMetricNames are the per-layer metrics the probe phase produces.
func probeMetricNames() []string {
	names := []string{"search.tpe.trial_s", "synth.generate_s"}
	for _, f := range []string{"Variance", "Chi2", "Fisher", "MIM", "FCBF", "ReliefF", "MCFS", "Model"} {
		names = append(names, "ranking."+f+".rank_s")
	}
	sort.Strings(names)
	return names
}
