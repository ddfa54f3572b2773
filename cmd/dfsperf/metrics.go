package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json dfsperf reads: the workloads
// and the metrics every run reports, with their units, better directions
// and, for the end-to-end ones, regression bounds. It is the only catalog of
// names and units; the code below adds what the file has no key for.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(root string) (benchmarkFile, error) {
	path := filepath.Join(root, "BENCHMARK.json")
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range bf.PerLayer {
		if _, ok := layerDocs[m.Name]; !ok {
			return bf, fmt.Errorf("%s: per-layer metric %s has no layer in dfsperf", path, m.Name)
		}
	}
	return bf, nil
}

// report labels values with the units of specs. Every metric specs names
// must have a value and every value a spec: a run reports exactly what
// BENCHMARK.json declares.
func report(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json declares %s, which this run does not measure", s.Name)
		}
		out[s.Name] = metricValue{v, s.Unit}
	}
	var extra []string
	for name := range values {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("this run measures %s, which BENCHMARK.json does not declare", strings.Join(extra, ", "))
	}
	return out, nil
}

// layerDoc says which layer a per-layer metric belongs to and which
// end-to-end number it should move, on which workload. Amounts are per
// operation of the traced half; a layer the workload does not reach reports
// 0. The wall.* and cpu.* metrics are the time and CPU time an operation
// takes end to end, which steal and other guests' work on a shared VM move
// too far to gate on.
type layerDoc struct{ layer, moves string }

var layerDocs = map[string]layerDoc{
	"wall.ops_per_s":                 {"wall", "throughput on unstolen time, median over the untraced half's rounds"},
	"wall.op_p50_s":                  {"wall", "median operation latency of the untraced half"},
	"wall.op_tail_s":                 {"wall", "highest percentile of operation latency with ten samples beyond it"},
	"cpu.user_ms_per_op":             {"cpu", "user CPU time per operation of the untraced half: what training, search and the evaluator cost"},
	"cpu.total_ms_per_op":            {"cpu", "cpu.user_ms_per_op plus the system time it leaves out, per operation of the untraced half"},
	"cpu.system_ms_per_op":           {"cpu", "the system part of cpu.total_ms_per_op: syscalls, fsync, loopback networking; too unsteady to gate on"},
	"peak_rss_mb":                    {"runtime", "rss_mb on every workload: the resident-set high-water mark (VmHWM) of the whole traced run"},
	"bench.build_s":                  {"bench", "wall.ops_per_s@pool_cold, wall.op_p50_s@serve_warm"},
	"bench.builds":                   {"bench", "cpu.user_ms_per_op@fanout_warm"},
	"bench.slot_busy_share":          {"bench", "wall.ops_per_s@pool_cold, not cpu.user_ms_per_op"},
	"bench.first_record_s":           {"bench", "serve.first_record_p50_s@serve_warm and @fanout_warm"},
	"bench.checkpoint_append_p50_s":  {"bench", "wall.op_p50_s@serve_warm"},
	"bench.checkpoint_append_tail_s": {"bench", "wall.op_p50_s@serve_warm"},
	"bench.checkpoint_appends":       {"bench", "cpu.user_ms_per_op and cpu.system_ms_per_op@serve_warm"},
	"bench.skipped_durable_share":    {"bench", "must be 1 on serve_warm and fanout_warm"},
	"bench.eval_tier_build_s":        {"bench", "traced pool_store only: the eval tier's wall time per rebuild"},
	"bench.eval_tier_cpu_ms":         {"bench", "traced pool_store only: the eval tier's CPU per rebuild"},
	"bench.record_tier_build_s":      {"bench", "traced pool_store only: the record tier a warm dfsd job replays, so wall.op_p50_s@serve_warm"},
	"core.strategy_runs":             {"core", "cpu.user_ms_per_op@pool_cold"},
	"core.strategy_busy_s":           {"core", "cpu.user_ms_per_op@pool_cold"},
	"core.strategy_self_s":           {"core", "cpu.user_ms_per_op@pool_cold"},
	"core.memo.hit_share":            {"core", "cpu.user_ms_per_op@pool_cold"},
	"core.memo.waits":                {"core", "wall.ops_per_s@pool_cold"},
	"core.evals":                     {"core", "cpu.user_ms_per_op@pool_cold"},
	"core.evals.trained":             {"core", "cpu.user_ms_per_op@pool_cold; must be 0 on the served workloads"},
	"model.train_s":                  {"model", "cpu.user_ms_per_op@pool_cold and @pool_store; not the served workloads"},
	"model.trains":                   {"model", "cpu.user_ms_per_op@pool_cold"},
	"model.train_s.LR":               {"model", "cpu.user_ms_per_op@pool_cold"},
	"model.train_s.NB":               {"model", "cpu.user_ms_per_op@pool_cold"},
	"model.train_s.DT":               {"model", "cpu.user_ms_per_op@pool_cold"},
	"ranking.Chi2.rank_s":            {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.FCBF.rank_s":            {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.Fisher.rank_s":          {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.MCFS.rank_s":            {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.MIM.rank_s":             {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.Model.rank_s":           {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.ReliefF.rank_s":         {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"ranking.Variance.rank_s":        {"ranking", "cpu.user_ms_per_op@pool_cold"},
	"search.tpe.trial_s":             {"search", "cpu.user_ms_per_op@pool_cold"},
	"synth.generate_s":               {"synth", "cpu.user_ms_per_op@pool_cold, setup_s@pool_cold, cpu.user_ms_per_op@serve_warm"},
	"evalstore.open_s":               {"evalstore", "setup_s@pool_store, setup_s@serve_warm"},
	"evalstore.close_s":              {"evalstore", "cpu.system_ms_per_op@pool_store"},
	"evalstore.lookups":              {"evalstore", "bench.eval_tier_cpu_ms@pool_store (per eval-tier rebuild)"},
	"evalstore.hit_share":            {"evalstore", "bench.eval_tier_cpu_ms@pool_store; at least 0.95 there"},
	"evalstore.puts":                 {"evalstore", "cpu.user_ms_per_op and cpu.system_ms_per_op@pool_store"},
	"evalstore.wal_bytes":            {"evalstore", "cpu.system_ms_per_op@pool_store"},
	"serve.submit_p50_s":             {"serve", "wall.op_p50_s@serve_warm, wall.ops_per_s@serve_warm"},
	"serve.submit_tail_s":            {"serve", "wall.op_p50_s@serve_warm"},
	"serve.first_record_p50_s":       {"serve", "wall.op_p50_s@serve_warm and @fanout_warm"},
	"serve.queue_wait_s":             {"serve", "wall.op_p50_s@serve_warm, wall.ops_per_s@serve_warm"},
	"serve.overhead_s":               {"serve", "wall.op_p50_s@serve_warm, wall.ops_per_s@serve_warm"},
	"serve.stream_tail_s":            {"serve", "wall.op_p50_s@serve_warm, wall.ops_per_s@serve_warm"},
	"serve.job_tail_s":               {"serve", "diagnostic"},
	"serve.rejected":                 {"serve", "failed operations"},
	"serve.job.failed":               {"serve", "failed operations"},
	"serve.job.retried":              {"serve", "failed operations"},
	"serve.fanout.dispatch_s":        {"serve", "serve.first_record_p50_s@fanout_warm"},
	"serve.fanout.worker_busy_share": {"serve", "wall.ops_per_s@fanout_warm"},
	"serve.fanout.shards_dispatched": {"serve", "cpu.user_ms_per_op@fanout_warm"},
	"serve.fanout.shards_requeued":   {"serve", "wall.ops_per_s@fanout_warm"},
	"serve.fanout.records_streamed":  {"serve", "cpu.user_ms_per_op@fanout_warm"},
	"serve.fanout.probe_failures":    {"serve", "wall.ops_per_s@fanout_warm"},
	"serve.fanout.stream_fallbacks":  {"serve", "must stay 0 (one transfer path)"},
	"obs.trace_overhead":             {"obs", "how far the traced half's wall.ops_per_s is below the untraced half's"},
	"go.alloc_mb_per_op":             {"runtime", "cpu.user_ms_per_op and rss_mb on every workload"},
	"go.gc_cpu_share":                {"runtime", "cpu.user_ms_per_op on every workload"},
	"reconcile.unattributed_share":   {"reconcile", "time the layers above do not account for"},
}
