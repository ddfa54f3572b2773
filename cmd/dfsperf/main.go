// Command dfsperf is the benchmark of record of this repository. It drives
// the system through its public entry points — bench.BuildPoolResumed,
// evalstore.Open/Stats/Close, serve.New/Start with the daemon's HTTP API,
// and serve.Fanout — on four workloads, checks every output byte for byte
// against a reference computed in the same run, and prints every metric by
// name with its unit:
//
//	dfsperf --workload pool_cold --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the run prints the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it measures the workload for half the time untraced and
// half with an obs.Runtime attached and timing wrappers around the layer
// calls, and prints the per-layer metrics instead. The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. The exit code is 0 only when every output matched its
// reference.
//
//	dfsperf --compare A.jsonl B.jsonl
//
// compares two sets of runs recorded with --out, metric by metric, against
// the bounds in BENCHMARK.json. See README.md for the workloads, the
// metrics, and the layer each per-layer metric belongs to.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runLimit bounds one run, set-up included, well inside the three minutes a
// caller may wait for it.
const runLimit = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dfsperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed every config and job spec is generated from")
	seconds := fs.Float64("seconds", 10, "how long the rounds run, in seconds (traced runs split it between the untraced and the traced half)")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	root := fs.String("root", ".", "repository root: BENCHMARK.json is read and .bench_build/ written there")
	out := fs.String("out", "", "append this run's conditions and result as one JSON line to this file, for --compare")
	compare := fs.Bool("compare", false, "compare two --out files: dfsperf --compare A.jsonl B.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bf, err := readBenchmarkFile(*root)
	if err != nil {
		fmt.Fprintln(stderr, "dfsperf: --root must be the repository root:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "dfsperf: --compare takes two files")
			return 2
		}
		if err := runCompare(stdout, bf, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "dfsperf:", err)
			return 1
		}
		return 0
	}
	def, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(stderr, "dfsperf: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "dfsperf: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	o := options{
		def:     def,
		bench:   bf,
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		root:    *root,
		sz:      fullSizes,
		log:     stdout,
	}
	res, cond, err := runWorkload(ctx, o)
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			err = fmt.Errorf("run exceeded %v: %w", runLimit, err)
		}
		fmt.Fprintln(stderr, "dfsperf:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, runRecord{Workload: def.name, Seed: *seed, Trace: o.trace, Conditions: cond, Result: res}); err != nil {
			fmt.Fprintln(stderr, "dfsperf:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "dfsperf:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is one line of an --out file.
type runRecord struct {
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Trace      bool       `json:"trace"`
	Conditions conditions `json:"conditions"`
	Result     result     `json:"result"`
}

func appendRecord(path string, rec runRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
