package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloadDef names a workload; BENCHMARK.json records why it exists.
type workloadDef struct {
	name string
	new  func(e *env) testbed
}

var workloads = []workloadDef{
	{"pool_cold", func(e *env) testbed { return &poolBed{e: e} }},
	{"pool_store", func(e *env) testbed { return &poolBed{e: e, store: true} }},
	{"serve_warm", func(e *env) testbed { return &serveBed{e: e} }},
	{"fanout_warm", func(e *env) testbed { return &serveBed{e: e, fan: true} }},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// options configure one run.
type options struct {
	def     workloadDef
	bench   benchmarkFile
	seed    uint64
	seconds time.Duration
	trace   bool
	root    string
	sz      sizes
	log     io.Writer
	// tamper corrupts the first reference output, so every check against it
	// must fail; the smoke test uses it to prove the checks bite.
	tamper bool
}

// env is what a testbed shares with the run driving it.
type env struct {
	seed    uint64
	sz      sizes
	dir     string // this run's data directory, removed at the end
	clients int    // closed-loop callers: one per CPU
	tamper  bool
	log     io.Writer
	dirs    atomic.Int64
}

// freshDir returns a path for a new directory under the run's data directory.
func (e *env) freshDir(prefix string) string {
	return filepath.Join(e.dir, fmt.Sprintf("%s-%d", prefix, e.dirs.Add(1)))
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.log, format+"\n", args...)
}

// tamperRef applies the tamper hook to the first reference only.
func (e *env) tamperRef(i int, ref []byte) []byte {
	if !e.tamper || i != 0 || len(ref) == 0 {
		return ref
	}
	out := append([]byte(nil), ref...)
	out[len(out)-2] ^= 1
	return out
}

// testbed is one workload's system under test. A run measures it in rounds:
// stage, set up (timed), work (timed), tear down.
type testbed interface {
	// prepare builds the inputs and references once per run, untimed.
	prepare(ctx context.Context) error
	// stage readies what the next set-up consumes, such as a fresh copy of
	// a warmed store, untimed.
	stage() error
	// setUp brings the system under test up. A non-nil tr attaches the
	// traced run's runtime and wrappers.
	setUp(ctx context.Context, tr *tracing) error
	// work runs the round's fixed list of operations on e.clients
	// closed-loop callers, records each in ph, and checks every output.
	work(ctx context.Context, tr *tracing, ph *phase) error
	// tearDown stops the system and removes what the round left, untimed.
	tearDown(ctx context.Context, tr *tracing) error
	// probeInputs are the training splits the traced run's probe phase
	// ranks, searches and regenerates.
	probeInputs() ([]probeInput, error)
	// storeDir is the durable store the traced run's probe opens and
	// closes; empty means a fresh one.
	storeDir() string
	// minRounds is the fewest rounds a measurement runs, however short: two
	// where the first round computes the references the later ones are
	// checked against, else one.
	minRounds() int
}

// round is one round's work phase.
type round struct {
	start, end time.Time
	cpu        cpuDelta
	ops        int
}

// rate is the round's operations per second on unstolen time.
func (r round) rate() float64 {
	return float64(r.ops) / r.cpu.unstolen(r.end.Sub(r.start)).Seconds()
}

// phase is what one measurement leaves behind.
type phase struct {
	setupCPU  []float64 // process CPU seconds of each set-up
	setupWall []float64 // and its wall time
	rounds    []round
	rss       []float64 // resident set size in MB, sampled while rounds work
	goStart   goStats
	goEnd     goStats
	whole     cpuDelta // over the whole measurement, set-ups included

	mu        sync.Mutex
	latencies []float64 // seconds, successful operations
	attempted int
	failed    int
	problems  []string
}

// record accounts one operation that ran from start to end: done when it
// succeeded, or failed by problem.
func (p *phase) record(start, end time.Time, problem error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if problem != nil {
		p.invalidLocked(problem)
		return
	}
	p.latencies = append(p.latencies, end.Sub(start).Seconds())
}

// invalid records a failed check that no single operation owns.
func (p *phase) invalid(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.invalidLocked(err)
}

func (p *phase) invalidLocked(err error) {
	p.failed++
	if len(p.problems) < 5 {
		p.problems = append(p.problems, err.Error())
	}
}

func (p *phase) ops() int { return len(p.latencies) }

// work sums the rounds' CPU accounts.
func (p *phase) work() (cpu cpuDelta, wall time.Duration) {
	cpu.ok = true
	for _, r := range p.rounds {
		cpu = cpu.add(r.cpu)
		wall += r.end.Sub(r.start)
	}
	return cpu, wall
}

// userCPUPerOp is the user CPU time the rounds' work took per successful
// operation: the machine's user and nice time from /proc/stat, which leaves
// out time the hypervisor stole. It is not an end-to-end metric: on the pool
// workloads its median moved 9–11% between two sets of ten runs, because
// work on other guests slows this one's user time too.
func (p *phase) userCPUPerOp() float64 {
	cpu, _ := p.work()
	return ratio(cpu.userWork(), float64(p.ops()))
}

// cpuPerOp is the rounds' CPU time of every kind per successful operation.
func (p *phase) cpuPerOp() float64 {
	cpu, _ := p.work()
	return ratio(cpu.work(), float64(p.ops()))
}

// opsPerSecond is the median over rounds of each round's throughput on
// unstolen time.
func (p *phase) opsPerSecond() float64 {
	rates := make([]float64, len(p.rounds))
	for i, r := range p.rounds {
		rates[i] = r.rate()
	}
	return median(rates)
}

// warmupSetups are the first set-ups of a run, left out of setup_s: they
// fault in the code and data the later ones find resident (the first took
// up to five times the median).
const warmupSetups = 5

// setupSeconds is the median process CPU time of a set-up, past the warm-up
// ones. It is CPU time, not wall time, because a set-up lasts 5–40 ms, a
// few of /proc/stat's ticks, so the hypervisor's steal cannot be taken out
// of its wall time: over six runs per workload at steal shares of 0.05–0.4,
// the median set-up CPU time spread 6–13% between runs (interquartile
// distance over median), the median wall time corrected for steal 5–33%.
// Process CPU time is exact to the nanosecond, but on this kernel it also
// counts time stolen while the process ran, so steal still moves it, less.
// It leaves out waits for the disk.
func (p *phase) setupSeconds() float64 {
	xs := p.setupCPU
	if len(xs) > warmupSetups {
		xs = xs[warmupSetups:]
	}
	return median(xs)
}

// measure runs setupOnly set-up/tear-down cycles, then rounds until d has
// passed and at least minRounds ran. Every set-up is timed.
func measure(ctx context.Context, tb testbed, d time.Duration, setupOnly int, tr *tracing) (*phase, error) {
	ph := &phase{goStart: readGoStats()}
	first := readCPU()
	var t0 time.Time
	for k := 0; ; k++ {
		measuring := k >= setupOnly
		if measuring && t0.IsZero() {
			t0 = time.Now()
		}
		if measuring && len(ph.rounds) >= tb.minRounds() && time.Since(t0) >= d {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := tb.stage(); err != nil {
			return nil, fmt.Errorf("stage: %w", err)
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage an earlier round left.
		runtime.GC()
		cpu0, start := processCPU(), time.Now()
		err := tb.setUp(ctx, tr)
		wall, cpu := time.Since(start), processCPU()-cpu0
		if err == nil {
			ph.setupCPU = append(ph.setupCPU, cpu)
			ph.setupWall = append(ph.setupWall, wall.Seconds())
			if measuring {
				err = runRound(ctx, tb, tr, ph)
			}
		}
		if terr := tb.tearDown(ctx, tr); err == nil {
			err = terr
		}
		if err != nil {
			return nil, err
		}
	}
	ph.goEnd, ph.whole = readGoStats(), first.to(readCPU())
	return ph, nil
}

func runRound(ctx context.Context, tb testbed, tr *tracing, ph *phase) error {
	before := ph.ops()
	stopRSS := sampleRSS()
	c0, start := readCPU(), time.Now()
	err := tb.work(ctx, tr, ph)
	end, c1 := time.Now(), readCPU()
	ph.rss = append(ph.rss, stopRSS()...)
	if err != nil {
		return err
	}
	ph.rounds = append(ph.rounds, round{start: start, end: end, cpu: c0.to(c1), ops: ph.ops() - before})
	return nil
}

// runWorkload prepares and measures one workload, and reports its end-to-end
// metrics, or with o.trace its per-layer metrics.
func runWorkload(ctx context.Context, o options) (result, conditions, error) {
	dataRoot := filepath.Join(o.root, ".bench_build", "dfsperf")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return result{}, conditions{}, err
	}
	dir, err := os.MkdirTemp(dataRoot, "run-"+o.def.name+"-")
	if err != nil {
		return result{}, conditions{}, err
	}
	defer os.RemoveAll(dir)
	cond := hostConditions(dir, o.seconds.Seconds())
	c0 := readCPU()
	e := &env{seed: o.seed, sz: o.sz, dir: dir, clients: runtime.NumCPU(), tamper: o.tamper, log: o.log}
	e.logf("dfsperf %s seed=%d seconds=%.1f trace=%v clients=%d", o.def.name, o.seed, o.seconds.Seconds(), o.trace, e.clients)
	tb := o.def.new(e)

	t0 := time.Now()
	if err := tb.prepare(ctx); err != nil {
		return result{}, cond, fmt.Errorf("prepare: %w", err)
	}
	e.logf("prepare: %.3fs (inputs and references, untimed)", time.Since(t0).Seconds())

	var res result
	if o.trace {
		res, err = tracedRun(ctx, e, tb, o)
	} else {
		res, cond.Diagnostics, err = untracedRun(ctx, e, tb, o)
	}
	if err != nil {
		return result{}, cond, err
	}
	cond.StealShare = c0.to(readCPU()).stealShare()
	e.logf("conditions: %s", cond)
	return res, cond, nil
}

// untracedRun reports the end-to-end metrics, and as diagnostics the
// figures too unsteady on a shared VM to gate on.
func untracedRun(ctx context.Context, e *env, tb testbed, o options) (result, map[string]float64, error) {
	ph, err := measure(ctx, tb, o.seconds, e.sz.SetupReps, nil)
	if err != nil {
		return result{}, nil, err
	}
	reportPhase(e, "measured", ph)
	if len(ph.rss) == 0 {
		return result{}, nil, fmt.Errorf("no resident set size samples: /proc/self/statm unreadable")
	}
	m, err := report(o.bench.EndToEnd, map[string]float64{
		"setup_s": ph.setupSeconds(),
		"rss_mb":  median(ph.rss),
	})
	if err != nil {
		return result{}, nil, err
	}
	diag := diagnostics(ph)
	if diag["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return result{}, nil, err
	}
	return finalResult(m, ph), diag, nil
}

func diagnostics(ph *phase) map[string]float64 {
	cpu, _ := ph.work()
	return map[string]float64{
		"setup_wall_s":       median(ph.setupWall),
		"ops_per_s":          ph.opsPerSecond(),
		"op_p50_ms":          1000 * median(ph.latencies),
		"user_cpu_ms_per_op": 1000 * ph.userCPUPerOp(),
		"cpu_ms_per_op":      1000 * ph.cpuPerOp(),
		"proc_cpu_ms_per_op": 1000 * ratio(cpu.proc, float64(ph.ops())),
		"steal_share":        cpu.stealShare(),
		"rounds":             float64(len(ph.rounds)),
	}
}

// tracedRun measures the workload for half the time untraced, then for the
// other half with tracing attached, then probes the layers a build calls
// from inside, and reports the per-layer metrics.
func tracedRun(ctx context.Context, e *env, tb testbed, o options) (result, error) {
	half := o.seconds / 2
	bare, err := measure(ctx, tb, half, 0, nil)
	if err != nil {
		return result{}, err
	}
	reportPhase(e, "untraced half", bare)
	tr := newTracing()
	traced, err := measure(ctx, tb, half, 0, tr)
	if err != nil {
		return result{}, err
	}
	reportPhase(e, "traced half", traced)
	if err := tr.probe(ctx, tb, e.freshDir("probe-store")); err != nil {
		return result{}, fmt.Errorf("probe: %w", err)
	}
	if paths, err := tr.writeTrace(filepath.Join(o.root, ".bench_build", "dfsperf"), o.def.name, o.seed); err != nil {
		e.logf("trace not written: %v", err)
	} else {
		e.logf("trace: %s", paths)
	}
	vals := tr.layerMetrics(e, bare, traced)
	if vals["peak_rss_mb"], err = peakRSSMB(); err != nil {
		return result{}, err
	}
	m, err := report(o.bench.PerLayer, vals)
	if err != nil {
		return result{}, err
	}
	for _, s := range o.bench.PerLayer {
		d := layerDocs[s.Name]
		e.logf("  %-32s %12.6g %-8s [%s] %s", s.Name, m[s.Name].Value, s.Unit, d.layer, d.moves)
	}
	res := finalResult(m, traced)
	res.Attempted += bare.attempted
	res.Failed += bare.failed
	res.Correct = res.Failed == 0
	return res, nil
}

func reportPhase(e *env, name string, ph *phase) {
	cpu, wall := ph.work()
	raw := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		raw[i] = float64(r.ops) / r.end.Sub(r.start).Seconds()
	}
	e.logf("%s: %d/%d ops ok in %d rounds, %.3fs of work, steal share %.3f", name, ph.ops(), ph.attempted, len(ph.rounds), wall.Seconds(), cpu.stealShare())
	byRound := make([]float64, len(ph.rounds))
	for i, r := range ph.rounds {
		byRound[i] = 1000 * ratio(r.cpu.userWork(), float64(r.ops))
	}
	n := float64(ph.ops())
	e.logf("  cpu per op: %.4g ms user (by round %.4g), %.4g ms system, %.4g ms machine busy, %.4g ms process",
		1000*ph.userCPUPerOp(), byRound, 1000*ratio(cpu.system, n), 1000*ph.cpuPerOp(), 1000*ratio(cpu.proc, n))
	e.logf("  ops/s per round: median %.4g unstolen, %.4g wall; op p50 %.4g ms", ph.opsPerSecond(), median(raw), 1000*median(ph.latencies))
	e.logf("  %d set-ups: median %.4g ms CPU, %.4g ms wall", len(ph.setupCPU), 1000*median(ph.setupCPU), 1000*median(ph.setupWall))
	for _, p := range ph.problems {
		e.logf("  FAIL: %s", p)
	}
}

func finalResult(m map[string]metricValue, ph *phase) result {
	return result{
		Correct:   ph.failed == 0 && ph.attempted > 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}
}

// closedLoop runs op(i) for every i in [0, n) on c concurrent callers, each
// taking the next index as soon as its previous call returns.
func closedLoop(n, c int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < min(c, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(i)
			}
		}()
	}
	wg.Wait()
}
