// Command benchmark regenerates the tables and figures of the paper's
// evaluation section (§6) from freshly fuzzed scenario pools.
//
// Usage:
//
//	benchmark -exp all                      # everything, default scale
//	benchmark -exp table3 -scenarios 120    # one experiment, bigger pool
//	benchmark -exp figure5 -grid 5
//
// Experiments: table3 table4 table5 table6 table7 table8 table9 figure1
// figure4 figure5 all. Output goes to stdout; pass -out DIR to also write
// one text file per experiment.
//
// Scale guidance: the paper's pools took four compute-weeks; the simulated
// cost meter (see DESIGN.md §4) compresses that to minutes. -scenarios 60
// (default) gives stable orderings; 150+ tightens the numbers.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/report"
	"github.com/declarative-fs/dfs/internal/sigctx"
	"github.com/declarative-fs/dfs/internal/synth"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (pool, table3..table9, figure1, figure4, figure5, all)")
	scenarios := flag.Int("scenarios", 60, "fuzzed scenarios per pool")
	seed := flag.Uint64("seed", 7, "determinism seed")
	maxEvals := flag.Int("maxevals", 120, "real-compute guard per strategy run")
	grid := flag.Int("grid", 4, "figure 5 grid resolution per axis")
	figure1N := flag.Int("figure1", 60, "figure 1 random subsets")
	outDir := flag.String("out", "", "directory for per-experiment output files (optional)")
	datasets := flag.String("datasets", "", "comma-separated dataset subset (default: all 19)")
	reportPath := flag.String("report", "", "write the paper-vs-measured EXPERIMENTS report to this file")
	dumpPath := flag.String("dump", "", "write the raw HPO scenario pool as CSV to this file")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /metrics on this address (e.g. 127.0.0.1:8090)")
	tracePath := flag.String("trace", "", "write a JSONL span trace of the run to this file")
	traceRotate := flag.Int64("trace-rotate-bytes", 0, "rotate the -trace file when it would exceed this many bytes (0 = single file, no rotation)")
	traceKeep := flag.Int("trace-keep", 8, "rotated -trace files to keep when -trace-rotate-bytes is set")
	progressEvery := flag.Duration("progress", 0, "print a progress line (scenarios done, strategy runs started, cumulative over all pools) to stderr at this interval (0 disables)")
	checkpointPrefix := flag.String("checkpoint", "", "stream completed scenarios to append-only JSONL checkpoints named PREFIX-LABEL.ckpt")
	resume := flag.Bool("resume", false, "resume -checkpoint files from an earlier run (config must match; completed scenarios are not re-run)")
	shardFlag := flag.String("shard", "", "run only shard i/n of every pool (e.g. 0/2); combine with -checkpoint, then reassemble with -merge")
	merge := flag.Bool("merge", false, "merge shard checkpoint files (positional arguments) into complete pools instead of running scenarios")
	figuresJSON := flag.String("figures-json", "", "write figure data as machine-readable JSON (non-finite values become null) to this file")
	kernelWorkers := flag.Int("kernel-workers", 0, "data-parallel goroutines inside numeric kernels per strategy run; 0 composes with the scheduler (GOMAXPROCS/workers). Never changes results")
	evalStore := flag.String("eval-store", "", "directory of the durable content-addressed evaluation store shared across runs and shards; reruns replay stored trainings bit-identically")
	flag.Parse()

	cfg := bench.Config{
		Scenarios:     *scenarios,
		Seed:          *seed,
		MaxEvals:      *maxEvals,
		KernelWorkers: *kernelWorkers,
	}
	if *datasets != "" {
		for _, d := range strings.Split(*datasets, ",") {
			cfg.Datasets = append(cfg.Datasets, strings.TrimSpace(d))
		}
	} else {
		cfg.Datasets = synth.Names()
	}
	shard, err := parseShard(*shardFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *resume && *checkpointPrefix == "" {
		fmt.Fprintln(os.Stderr, "benchmark: -resume requires -checkpoint")
		os.Exit(2)
	}

	// SIGINT/SIGTERM cancel in-flight pools at their next budget charge;
	// buildPool then flushes whatever completed instead of losing the run.
	// The handler is latched: a second signal during the flush force-exits
	// with sigctx.ForceExitCode instead of being silently swallowed.
	ctx, stop := sigctx.WithSignals(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Observability is opt-in: without any of the three flags the context
	// carries no runtime and the pools run on the uninstrumented path.
	ctx, cleanup, err := setupObs(ctx, *debugAddr, *tracePath, *traceRotate, *traceKeep, *progressEvery)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	var store *evalstore.Store
	if *evalStore != "" {
		store, err = evalstore.Open(*evalStore, evalstore.Options{Metrics: obs.FromContext(ctx).Metrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	// exit funnels every path through cleanup so flush/close failures (full
	// disk truncating the trace) surface as a nonzero exit instead of
	// silently dropping data.
	exit := func(code int) {
		if store != nil {
			// The stats line is machine-parsed by CI's evalstore-smoke job.
			fmt.Fprintf(os.Stderr, "# eval-store: %s\n", store.Stats())
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: eval-store:", err)
				if code == 0 {
					code = 1
				}
			}
		}
		if err := cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	r := &runner{
		ctx: ctx, cfg: cfg, outDir: *outDir, grid: *grid, figure1N: *figure1N,
		seed: *seed, checkpoint: *checkpointPrefix, resume: *resume, shard: shard,
		store: store,
	}
	if *merge {
		if err := r.mergePools(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			exit(1)
		}
	}
	if err := r.run(*exp); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if errors.Is(err, errInterrupted) {
			exit(130)
		}
		exit(1)
	}
	if *reportPath != "" {
		if err := r.writeReport(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "# wrote report to %s\n", *reportPath)
	}
	if *dumpPath != "" {
		if err := r.dumpPool(*dumpPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "# wrote raw pool to %s\n", *dumpPath)
	}
	if *figuresJSON != "" {
		if err := r.writeFiguresJSON(*figuresJSON); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			exit(1)
		}
		fmt.Fprintf(os.Stderr, "# wrote figure JSON to %s\n", *figuresJSON)
	}
	exit(0)
}

// parseShard parses the -shard value ("i/n"); empty means the whole pool.
func parseShard(s string) (bench.ShardSpec, error) {
	if s == "" {
		return bench.ShardSpec{}, nil
	}
	var spec bench.ShardSpec
	if _, err := fmt.Sscanf(s, "%d/%d", &spec.Index, &spec.Count); err != nil {
		return bench.ShardSpec{}, fmt.Errorf("invalid -shard %q (want i/n, e.g. 0/2)", s)
	}
	if spec.Count < 1 || spec.Index < 0 || spec.Index >= spec.Count {
		return bench.ShardSpec{}, fmt.Errorf("invalid -shard %q: index must be in [0,count)", s)
	}
	return spec, nil
}

// setupObs wires the opt-in observability surface: a JSONL tracer (-trace,
// size-rotated when -trace-rotate-bytes is set), the debug HTTP listener
// (-debug-addr), and a periodic progress line (-progress) read off the
// metrics registry, cumulative over the process's pools. It returns the
// runtime-carrying context and a cleanup that flushes the trace and stops
// the listener, reporting the first failure — a Flush/Close error on the
// trace file is lost data (full disk), not noise. When no flag is set the
// context is returned untouched and cleanup is a no-op.
func setupObs(ctx context.Context, debugAddr, tracePath string, traceRotate int64, traceKeep int, progressEvery time.Duration) (context.Context, func() error, error) {
	noop := func() error { return nil }
	if debugAddr == "" && tracePath == "" && progressEvery <= 0 {
		return ctx, noop, nil
	}
	var cleanups []func() error
	cleanup := func() error {
		var first error
		for i := len(cleanups) - 1; i >= 0; i-- {
			if err := cleanups[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	var opts []obs.Option
	var tracer *obs.Tracer
	switch {
	case tracePath != "" && traceRotate > 0:
		sink, err := obs.NewRotatingFileSink(tracePath, traceRotate, traceKeep)
		if err != nil {
			return ctx, noop, err
		}
		tracer = obs.NewTracer(sink)
		// Rotating sinks append across runs; the epoch marker tells readers
		// (cmd/obsreport) where this run's span numbering begins.
		tracer.Event(0, obs.EpochEvent, obs.Str("daemon", "benchmark"))
		opts = append(opts, obs.WithTracer(tracer))
		cleanups = append(cleanups, func() error {
			err := tracer.Err()
			if cerr := sink.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("trace %s: %w", tracePath, err)
			}
			return nil
		})
	case tracePath != "":
		f, err := os.Create(tracePath)
		if err != nil {
			return ctx, noop, err
		}
		bw := bufio.NewWriter(f)
		tracer = obs.NewWriterTracer(bw)
		opts = append(opts, obs.WithTracer(tracer))
		cleanups = append(cleanups, func() error {
			err := tracer.Err()
			if ferr := bw.Flush(); err == nil {
				err = ferr
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fmt.Errorf("trace %s: %w", tracePath, err)
			}
			return nil
		})
	}
	rt := obs.New(opts...)
	ctx = obs.NewContext(ctx, rt)
	if debugAddr != "" {
		srv, err := obs.StartDebug(debugAddr, rt)
		if err != nil {
			if cerr := cleanup(); cerr != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", cerr)
			}
			return ctx, noop, err
		}
		fmt.Fprintf(os.Stderr, "# debug listener on http://%s (pprof, /metrics)\n", srv.Addr())
		cleanups = append(cleanups, srv.Close)
	}
	if progressEvery > 0 {
		t := time.NewTicker(progressEvery)
		stopped := make(chan struct{})
		go func() {
			for {
				select {
				case <-stopped:
					return
				case <-t.C:
					fmt.Fprintln(os.Stderr, bench.ProgressLine(rt.Metrics().Snapshot()))
				}
			}
		}()
		cleanups = append(cleanups, func() error { t.Stop(); close(stopped); return nil })
	}
	return ctx, cleanup, nil
}

// dumpPool writes the HPO pool's raw per-strategy outcomes as CSV.
func (r *runner) dumpPool(path string) error {
	hpo, err := r.getHPOPool()
	if err != nil {
		return err
	}
	return writePoolFile(path, hpo)
}

// writePoolFile writes a pool CSV, closing the file exactly once and
// reporting the first failure (a close error is a write error on buffered
// filesystems).
func writePoolFile(path string, p *bench.Pool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WritePoolCSV(f, p); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport regenerates every experiment (reusing cached pools) and emits
// the paper-vs-measured EXPERIMENTS document.
func (r *runner) writeReport(path string) error {
	def, err := r.getDefaultPool()
	if err != nil {
		return err
	}
	hpo, err := r.getHPOPool()
	if err != nil {
		return err
	}
	util, err := r.getUtilityPool()
	if err != nil {
		return err
	}
	eval, err := r.getOptimizerEval()
	if err != nil {
		return err
	}
	t3, err := bench.Table3(def, hpo, r.seed)
	if err != nil {
		return err
	}
	t7, err := bench.Table7(hpo, r.seed)
	if err != nil {
		return err
	}
	fig1, err := bench.Figure1(r.figure1N, r.seed)
	if err != nil {
		return err
	}
	fig5, err := bench.Figure5(bench.Figure5Config{
		GridN: r.grid, MaxEvals: r.cfg.MaxEvals, Seed: r.seed, HPO: true,
	})
	if err != nil {
		return err
	}
	doc := report.Generate(&report.Results{
		Table3:    t3,
		Table4:    bench.Table4(hpo, util),
		Table5:    bench.Table5(hpo),
		Table6:    bench.Table6(hpo),
		Table7:    t7,
		Table8:    bench.Table8(hpo),
		Table9:    bench.Table9(hpo, eval),
		Figure1:   fig1,
		Figure4:   bench.Figure4(hpo, eval),
		Figure5:   fig5,
		Scenarios: r.cfg.Scenarios,
		Seed:      r.seed,
		MaxEvals:  r.cfg.MaxEvals,
	})
	return os.WriteFile(path, []byte(doc), 0o644)
}

// writeFiguresJSON regenerates the figures (reusing cached pools) and emits
// them as one NaN-free JSON document.
func (r *runner) writeFiguresJSON(path string) error {
	hpo, err := r.getHPOPool()
	if err != nil {
		return err
	}
	eval, err := r.getOptimizerEval()
	if err != nil {
		return err
	}
	fig1, err := bench.Figure1(r.figure1N, r.seed)
	if err != nil {
		return err
	}
	fig5, err := bench.Figure5(bench.Figure5Config{
		GridN: r.grid, MaxEvals: r.cfg.MaxEvals, Seed: r.seed, HPO: true,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteFiguresJSON(f, fig1, bench.Figure4(hpo, eval), fig5); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// errInterrupted reports that a signal canceled a pool build; partial
// results were already flushed, and main converts it to exit status 130.
var errInterrupted = errors.New("interrupted by signal")

type runner struct {
	ctx        context.Context
	cfg        bench.Config
	outDir     string
	grid       int
	figure1N   int
	seed       uint64
	checkpoint string // -checkpoint path prefix ("" disables)
	resume     bool
	shard      bench.ShardSpec
	store      *evalstore.Store // -eval-store handle shared by every pool ("" disables)
	mergeOnly  bool             // pools come from -merge; never rebuild silently

	defaultPool *bench.Pool
	hpoPool     *bench.Pool
	utilityPool *bench.Pool
	optEval     *bench.OptimizerEval
}

// checkpointPath names one pool's checkpoint file under the -checkpoint
// prefix; the label keeps the three pools (default-parameter, HPO,
// utility-mode) in separate files.
func (r *runner) checkpointPath(label string) string {
	return r.checkpoint + "-" + label + ".ckpt"
}

// mergePools reassembles complete pools from shard checkpoint files and
// adopts each into the runner's cache; subsequent experiments read the
// merged pools instead of rebuilding. Grouping is by checkpoint Config, so
// one -merge invocation can carry shards of several pools.
func (r *runner) mergePools(paths []string) error {
	if len(paths) == 0 {
		return errors.New("-merge needs checkpoint files as positional arguments")
	}
	// Group the files by pool identity (HPO/Mode), then merge each group.
	groups := make(map[string][]string)
	var order []string
	for _, path := range paths {
		cfg, _, err := bench.ReadCheckpoint(path)
		if err != nil {
			return err
		}
		key := fmt.Sprintf("hpo=%t mode=%d", cfg.HPO, cfg.Mode)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], path)
	}
	for _, key := range order {
		p, err := bench.MergeShards(groups[key]...)
		if err != nil {
			return err
		}
		if p.Interrupted {
			return fmt.Errorf("merge: checkpoints %s cover only %d/%d scenarios",
				strings.Join(groups[key], ", "), len(p.Records), p.Config.Scenarios)
		}
		switch {
		case p.Config.Mode == core.ModeMaximizeUtility:
			r.utilityPool = p
		case p.Config.HPO:
			r.hpoPool = p
		default:
			r.defaultPool = p
		}
		fmt.Fprintf(os.Stderr, "# merged %d checkpoint file(s) into a %d-scenario pool (%s)\n",
			len(groups[key]), len(p.Records), key)
	}
	r.mergeOnly = true
	return nil
}

// mergedOnly guards pool getters in -merge mode: rebuilding a pool the
// merge did not provide would silently mask missing shards (and make any
// downstream diff pass trivially), so it is an error instead.
func (r *runner) mergedOnly(label string) error {
	if r.mergeOnly {
		return fmt.Errorf("-merge did not provide the %s pool; pass its shard checkpoints or drop -merge", label)
	}
	return nil
}

func (r *runner) run(exp string) error {
	switch exp {
	case "pool":
		// Build (or resume/merge) the HPO pool and nothing else: the unit of
		// work for shard workers and checkpointed runs whose tables are
		// produced later by a -merge invocation.
		_, err := r.getHPOPool()
		return err
	case "all":
		for _, e := range []string{"table3", "table4", "table5", "table6",
			"table7", "table8", "table9", "figure1", "figure4", "figure5",
			"ablation", "extension"} {
			if err := r.run(e); err != nil {
				return err
			}
		}
		return nil
	case "extension":
		seq, err := bench.SequenceExperiment("COMPAS", 10, r.seed)
		if err != nil {
			return err
		}
		return r.emit("extension",
			"Extension: dynamic strategy switching (warm-started sequence vs. best single)",
			seq.Render())
	case "ablation":
		pr, err := bench.PruningAblation("COMPAS", 5, r.seed)
		if err != nil {
			return err
		}
		fl, err := bench.FloatingAblation("COMPAS", 5, r.seed)
		if err != nil {
			return err
		}
		tp, err := bench.TPEAblation("COMPAS", 5, r.seed)
		if err != nil {
			return err
		}
		body := "-- evaluation-independent pruning (SBS under a 15% feature cap) --\n" + pr.Render() +
			"\n-- floating step (Pudil et al.) --\n" + fl.Render() +
			"\n-- TPE vs random top-k search --\n" + tp.Render()
		return r.emit("ablation", "Ablations: design choices of DESIGN.md", body)
	case "table3":
		def, err := r.getDefaultPool()
		if err != nil {
			return err
		}
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		t, err := bench.Table3(def, hpo, r.seed)
		if err != nil {
			return err
		}
		return r.emit("table3", "Table 3: fastest fraction and coverage per strategy", t.Render())
	case "table4":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		util, err := r.getUtilityPool()
		if err != nil {
			return err
		}
		t := bench.Table4(hpo, util)
		return r.emit("table4", "Table 4: failure distances and utility-mode normalized F1", t.Render())
	case "table5":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		return r.emit("table5", "Table 5: coverage per declared constraint type", bench.Table5(hpo).Render())
	case "table6":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		return r.emit("table6", "Table 6: coverage per classification model", bench.Table6(hpo).Render())
	case "table7":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		t, err := bench.Table7(hpo, r.seed)
		if err != nil {
			return err
		}
		return r.emit("table7", "Table 7: feature-set transfer from LR (SFFS)", t.Render())
	case "table8":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		return r.emit("table8", "Table 8: greedy strategy portfolios", bench.Table8(hpo).Render())
	case "table9":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		eval, err := r.getOptimizerEval()
		if err != nil {
			return err
		}
		return r.emit("table9", "Table 9: meta-learning accuracy per strategy", bench.Table9(hpo, eval).Render())
	case "figure1":
		points, err := bench.Figure1(r.figure1N, r.seed)
		if err != nil {
			return err
		}
		return r.emit("figure1", "Figure 1: accuracy trade-off scatter on COMPAS", bench.RenderFigure1(points))
	case "figure4":
		hpo, err := r.getHPOPool()
		if err != nil {
			return err
		}
		eval, err := r.getOptimizerEval()
		if err != nil {
			return err
		}
		return r.emit("figure4", "Figure 4: per-dataset coverage heatmap", bench.Figure4(hpo, eval).Render())
	case "figure5":
		res, err := bench.Figure5(bench.Figure5Config{
			GridN: r.grid, MaxEvals: r.cfg.MaxEvals, Seed: r.seed, HPO: true,
		})
		if err != nil {
			return err
		}
		return r.emit("figure5", "Figure 5: fastest strategy per constraint pair on Adult", res.Render())
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

func (r *runner) getDefaultPool() (*bench.Pool, error) {
	if r.defaultPool == nil {
		if err := r.mergedOnly("default-parameter"); err != nil {
			return nil, err
		}
		cfg := r.cfg
		cfg.HPO = false
		cfg.Mode = core.ModeSatisfy
		p, err := r.buildPool("default-parameter", cfg)
		if err != nil {
			return nil, err
		}
		r.defaultPool = p
	}
	return r.defaultPool, nil
}

func (r *runner) getHPOPool() (*bench.Pool, error) {
	if r.hpoPool == nil {
		if err := r.mergedOnly("HPO"); err != nil {
			return nil, err
		}
		cfg := r.cfg
		cfg.HPO = true
		cfg.Mode = core.ModeSatisfy
		cfg.Seed = r.cfg.Seed + 1
		p, err := r.buildPool("HPO", cfg)
		if err != nil {
			return nil, err
		}
		r.hpoPool = p
	}
	return r.hpoPool, nil
}

func (r *runner) getUtilityPool() (*bench.Pool, error) {
	if r.utilityPool == nil {
		if err := r.mergedOnly("utility-mode"); err != nil {
			return nil, err
		}
		cfg := r.cfg
		cfg.HPO = true
		cfg.Mode = core.ModeMaximizeUtility
		cfg.Seed = r.cfg.Seed + 2
		cfg.Scenarios = r.cfg.Scenarios / 2 // mirrors the paper's smaller utility pool
		if cfg.Scenarios == 0 {
			cfg.Scenarios = 1
		}
		p, err := r.buildPool("utility-mode", cfg)
		if err != nil {
			return nil, err
		}
		r.utilityPool = p
	}
	return r.utilityPool, nil
}

func (r *runner) getOptimizerEval() (*bench.OptimizerEval, error) {
	if r.optEval == nil {
		hpo, err := r.getHPOPool()
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "# training DFS optimizer (leave-one-dataset-out)...")
		eval, err := bench.EvaluateOptimizer(hpo, r.seed)
		if err != nil {
			return nil, err
		}
		r.optEval = eval
	}
	return r.optEval, nil
}

func (r *runner) buildPool(label string, cfg bench.Config) (*bench.Pool, error) {
	cfg.Label = label
	cfg.Shard = r.shard
	fmt.Fprintf(os.Stderr, "# building %s pool: %d scenarios on %d datasets...\n",
		label, cfg.Scenarios, len(cfg.Datasets))
	start := time.Now()
	ctx := r.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	opts := bench.RunOptions{Store: r.store}
	var cp *bench.CheckpointWriter
	ckptPath := ""
	if r.checkpoint != "" {
		ckptPath = r.checkpointPath(label)
		var err error
		if r.resume {
			var resumed []bench.Record
			cp, resumed, err = bench.ResumeCheckpoint(ckptPath, cfg)
			if err != nil {
				return nil, err
			}
			opts.Resume = resumed
			if len(resumed) > 0 {
				fmt.Fprintf(os.Stderr, "# %s: resuming %d completed scenario(s) from %s\n",
					label, len(resumed), ckptPath)
			}
		} else {
			cp, err = bench.CreateCheckpoint(ckptPath, cfg)
			if err != nil {
				return nil, err
			}
		}
		opts.Sink = cp
	}
	p, err := bench.BuildPoolResumed(ctx, cfg, opts)
	if cp != nil {
		// A checkpoint flush/close failure means the file may not reflect
		// the completed scenarios — that must fail the run even though the
		// in-memory pool is fine.
		if cerr := cp.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("checkpoint %s: %w", ckptPath, cerr)
		}
	}
	if err != nil {
		return nil, err
	}
	if p.Interrupted {
		if err := r.flushInterrupted(label, cfg, p, ckptPath); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		return nil, fmt.Errorf("%s pool: %w", label, errInterrupted)
	}
	fmt.Fprintf(os.Stderr, "# %s pool done in %s (%d/%d satisfiable)\n",
		label, time.Since(start).Round(time.Millisecond), len(p.SatisfiableIDs()), cfg.Scenarios)
	return p, nil
}

// flushInterrupted saves whatever a canceled pool build completed — the
// partial pool CSV plus an interruption note — to -out (stderr-only when
// -out is unset), so hitting Ctrl-C does not lose the run.
func (r *runner) flushInterrupted(label string, cfg bench.Config, p *bench.Pool, ckptPath string) error {
	note := fmt.Sprintf("pool interrupted after %d/%d scenarios", len(p.Records), cfg.Scenarios)
	fmt.Fprintf(os.Stderr, "# %s: %s\n", label, note)
	if ckptPath != "" {
		fmt.Fprintf(os.Stderr, "# checkpoint retained at %s; rerun with -resume to continue\n", ckptPath)
	}
	if r.outDir == "" {
		if ckptPath == "" {
			fmt.Fprintln(os.Stderr, "# no -out directory; partial results discarded")
		}
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	csvPath := filepath.Join(r.outDir, label+"-pool-partial.csv")
	if err := writePoolFile(csvPath, p); err != nil {
		return err
	}
	notePath := filepath.Join(r.outDir, label+"-pool-interrupted.txt")
	if err := os.WriteFile(notePath, []byte(note+"\n"), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "# flushed partial pool to %s\n", csvPath)
	return nil
}

func (r *runner) emit(name, title, body string) error {
	fmt.Printf("== %s ==\n%s\n", title, body)
	if r.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, name+".txt"), []byte(body), 0o644)
}
