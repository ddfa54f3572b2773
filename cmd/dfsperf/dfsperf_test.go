package main

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTails(t *testing.T) {
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{1, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{0, 0.5, false},
	}
	for _, c := range cases {
		_, err := percentile(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%v): err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if v, err := percentile(seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	for _, c := range []struct {
		n    int
		name string
	}{{50, "p50"}, {150, "p90"}, {2000, "p99"}} {
		if _, name := tail(seq(c.n)); name != c.name {
			t.Errorf("tail of %d samples reports %s, want %s", c.n, name, c.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) from Python 3.
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{20, 10}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if s := spread(seq(10)); s != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func TestRoundMath(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	ncpu := float64(runtime.NumCPU())
	// Rounds of 8 operations in 4 s, 2 s and 8 s of wall time, the first
	// with a second of steal on every CPU, so 3 s unstolen.
	ph := &phase{rounds: []round{
		{start: t0, end: at(4 * time.Second), ops: 8, cpu: cpuDelta{busy: 6, user: 4, steal: ncpu, total: 4 * ncpu, ok: true}},
		{start: at(4 * time.Second), end: at(6 * time.Second), ops: 8, cpu: cpuDelta{busy: 3, user: 2, total: 2 * ncpu, ok: true}},
		{start: at(6 * time.Second), end: at(14 * time.Second), ops: 8, cpu: cpuDelta{busy: 15, user: 12, total: 8 * ncpu, ok: true}},
	}}
	ph.latencies = make([]float64, 24)
	if r := ph.rounds[0].rate(); math.Abs(r-8.0/3) > 1e-9 {
		t.Errorf("8 ops in 4 s with 1 s stolen per CPU: %v ops/s, want 8/3", r)
	}
	// Rates 8/3, 4 and 1 ops/s: the median is the first round's.
	if r := ph.opsPerSecond(); math.Abs(r-8.0/3) > 1e-9 {
		t.Errorf("median round rate %v, want 8/3", r)
	}
	if c := ph.cpuPerOp(); c != 1 {
		t.Errorf("24 CPU-seconds over 24 ops read %v s/op", c)
	}
	if c := ph.userCPUPerOp(); c != 0.75 {
		t.Errorf("18 user CPU-seconds over 24 ops read %v s/op", c)
	}
	// Without /proc/stat the process's own CPU time stands in.
	if d := (cpuDelta{busy: 5, user: 4, proc: 2}); d.work() != 2 || d.userWork() != 2 {
		t.Errorf("unreadable /proc/stat: work %v and user work %v, want the process time 2", d.work(), d.userWork())
	}
	if s := (cpuDelta{steal: 1, total: 4}).stealShare(); s != 0.25 {
		t.Errorf("steal share %v, want 0.25", s)
	}
}

func TestReadCPU(t *testing.T) {
	a := readCPU()
	if !a.ok {
		t.Skip("no /proc/stat")
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	d := a.to(readCPU())
	if d.total <= 0 || d.busy < 0 || d.steal < 0 || d.busy+d.steal > d.total || d.proc <= 0 {
		t.Errorf("implausible CPU delta over a 50 ms spin: %+v", d)
	}
}

func TestInputsDeterministic(t *testing.T) {
	a, err := slotConfigs(7, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	b, err := slotConfigs(7, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("slotConfigs is not deterministic in its seed")
	}
	c, err := slotConfigs(8, fullSizes)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("seeds 7 and 8 generated the same pool configs")
	}
	for k, cfg := range a {
		name, kind, cs := predict(cfg, 0)
		if s := poolSlots[k]; name != s.Dataset || !s.matches(kind, cs) {
			t.Errorf("slot %d: config draws %s/%s/%s, not the slot's composition %+v", k, name, kind, cs, s)
		}
	}
	s1 := jobSpecs(7, 4, 4)
	if !reflect.DeepEqual(s1, jobSpecs(7, 4, 4)) {
		t.Fatal("jobSpecs is not deterministic in its seed")
	}
	if reflect.DeepEqual(s1, jobSpecs(8, 4, 4)) {
		t.Fatal("seeds 7 and 8 generated the same job specs")
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 102, 103, 104}
	cases := []struct {
		name  string
		b     []float64
		bound float64
		want  string
	}{
		{"same", []float64{100, 101, 102, 103, 104}, 0.1, verdictUnchanged},
		{"faster beyond the spread", []float64{90, 91, 92, 93, 94}, 0.1, verdictBetter},
		{"slower beyond the bound", []float64{120, 121, 122, 123, 124}, 0.1, verdictWorse},
		{"slower within the bound", []float64{105, 106, 107, 108, 109}, 0.1, verdictUnchanged},
		{"spread wider than the bound", []float64{101, 102, 103, 104, 105}, 0.01, verdictUnresolved},
		{"every run better despite the spread", []float64{50, 51, 52, 53, 54}, 0.01, verdictBetter},
	}
	for _, c := range cases {
		if got, _ := verdict(a, c.b, c.bound, false); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if w := winShare([]float64{1, 2}, []float64{2, 3}, true); w != 0.75 {
		t.Errorf("win share %v, want 3 of 4 pairs with the tie counting for neither", w)
	}
}

func readRepoBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// toySizes run every workload in a few seconds. Smaller pool searches fail
// the eval tier's check: replaying MaxEvals 2 at 1 missed the store on one
// lookup in nineteen, below minEvalTierHitShare.
var toySizes = sizes{
	Slots: 1, MaxEvals: 3, EvalTierEvals: 2,
	Specs: 2, SpecScenarios: 1, FanSpecs: 2, FanScenarios: 2,
	RoundJobs: 4, FanRoundJobs: 2, SetupReps: 2, RecordTierReps: 1,
}

func toyRun(t *testing.T, bf benchmarkFile, workload string, trace, tamper bool) result {
	t.Helper()
	def, ok := workloadByName(workload)
	if !ok {
		t.Fatalf("BENCHMARK.json names workload %s, which dfsperf does not run", workload)
	}
	var log bytes.Buffer
	// Generous, for the race detector's tenfold slowdown.
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	res, _, err := runWorkload(ctx, options{
		def: def, bench: bf, seed: 3, seconds: 200 * time.Millisecond, trace: trace,
		root: t.TempDir(), sz: toySizes, log: &log, tamper: tamper,
	})
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	if testing.Verbose() {
		t.Logf("%s trace=%v tamper=%v:\n%s", workload, trace, tamper, log.String())
	}
	return res
}

func assertMetrics(t *testing.T, workload string, res result, want []metricSpec) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s reports %d metrics, BENCHMARK.json declares %d", workload, len(res.Metrics), len(want))
	}
	for _, s := range want {
		m, ok := res.Metrics[s.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, s.Name)
		} else if m.Unit != s.Unit {
			t.Errorf("%s: metric %s in %q, BENCHMARK.json says %q", workload, s.Name, m.Unit, s.Unit)
		}
	}
}

// TestSmoke runs every workload at toy size untraced, and every one but
// pool_cold (whose layers pool_store's traced run covers) traced. It
// checks every metric BENCHMARK.json names is reported with its unit, the
// workloads' validity conditions, and that a tampered reference fails the
// run. The workloads run in parallel: their metrics are meaningless then,
// but each run has its own data directory, daemons and references.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readRepoBenchmarkFile(t)
	for _, w := range bf.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			smokeWorkload(t, bf, w.Name)
		})
	}
	for _, name := range []string{"pool_cold", "serve_warm"} {
		t.Run("tampered_"+name, func(t *testing.T) {
			t.Parallel()
			if res := toyRun(t, bf, name, false, true); res.Correct || res.Failed == 0 {
				t.Errorf("%s with a tampered reference: correct=%v failed=%d, want a failure", name, res.Correct, res.Failed)
			}
		})
	}
}

func smokeWorkload(t *testing.T, bf benchmarkFile, name string) {
	res := toyRun(t, bf, name, false, false)
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	assertMetrics(t, name, res, bf.EndToEnd)
	for metric, m := range res.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, metric, m.Value)
		}
	}

	if name == "pool_cold" {
		return
	}
	res = toyRun(t, bf, name, true, false)
	if !res.Correct {
		t.Errorf("traced %s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	assertMetrics(t, name, res, bf.PerLayer)
	warm := name == "serve_warm" || name == "fanout_warm"
	if v := res.Metrics["bench.skipped_durable_share"].Value; warm && v != 1 {
		t.Errorf("traced %s: skipped_durable_share %v, want 1", name, v)
	}
	if v := res.Metrics["core.evals.trained"].Value; warm && v != 0 {
		t.Errorf("traced %s trained %v evaluations per op, want 0", name, v)
	}
	if name == "pool_store" {
		if v := res.Metrics["model.train_s"].Value; v <= 0 {
			t.Errorf("traced pool_store: model.train_s %v, want > 0", v)
		}
		if v := res.Metrics["evalstore.hit_share"].Value; v < minEvalTierHitShare {
			t.Errorf("traced pool_store: eval-tier hit share %v", v)
		}
		if v := res.Metrics["bench.record_tier_build_s"].Value; v <= 0 {
			t.Errorf("traced pool_store: record tier not timed")
		}
	}
	if v := res.Metrics["serve.fanout.stream_fallbacks"].Value; v != 0 {
		t.Errorf("traced %s: %v stream fallbacks", name, v)
	}
	if v := res.Metrics["serve.stream_tail_s"].Value; v < 0 {
		t.Errorf("traced %s: a job's last byte came %v s before its build ended", name, -v)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	bf := benchmarkFile{EndToEnd: []metricSpec{{Name: "rss_mb", Unit: "MB", Better: "lower", Bound: 0.1}}}
	write := func(name string, vals ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range vals {
			rec := runRecord{
				Workload:   "pool_cold",
				Conditions: conditions{Diagnostics: map[string]float64{"user_cpu_ms_per_op": 100 * v}},
				Result:     result{Metrics: map[string]metricValue{"rss_mb": {v, "MB"}}},
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", 10, 10.1, 10.2, 10.3, 10.4)
	same := write("same.jsonl", 10.1, 10.2, 10.3, 10.4, 10.5)
	slow := write("slow.jsonl", 12, 12.1, 12.2, 12.3, 12.4)
	var out bytes.Buffer
	if err := runCompare(&out, bf, a, same); err != nil {
		t.Fatalf("same-size sets compare as a regression: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") {
		t.Errorf("same-size sets: no unchanged verdict in\n%s", out.String())
	}
	out.Reset()
	if err := runCompare(&out, bf, a, slow); err == nil || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20%% larger set is not reported worse (err %v):\n%s", err, out.String())
	}
	// A diagnostic has no bound: 20% more CPU per operation is not a
	// failure, 20% less reads better.
	out.Reset()
	if err := runCompare(&out, benchmarkFile{}, a, slow); err != nil || !strings.Contains(out.String(), "user_cpu_ms_per_op") || !strings.Contains(out.String(), "not better") {
		t.Errorf("diagnostics of a slower set (err %v):\n%s", err, out.String())
	}
	out.Reset()
	if err := runCompare(&out, benchmarkFile{}, slow, a); err != nil || !strings.Contains(out.String(), "%  better (") {
		t.Errorf("diagnostics of a faster set not reported better (err %v):\n%s", err, out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--root", filepath.Join("..", "..")}, &out, &errOut); code == 0 {
		t.Error("an unknown workload exited 0")
	}
	if code := run([]string{"--workload", "pool_cold", "--root", t.TempDir()}, &out, &errOut); code == 0 {
		t.Error("a root without BENCHMARK.json exited 0")
	}
	if out.Len() != 0 {
		t.Errorf("a refused run printed a result: %q", out.String())
	}
}
