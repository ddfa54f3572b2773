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
// figure4 figure5 (the paper's §6), ablation and extension (DESIGN.md §3),
// all (those twelve, in that order), and pool (build the HPO pool only,
// for -checkpoint, -shard and -merge). Output goes to stdout; pass -out DIR
// to also write one text file per experiment. Each table and figure is
// computed at most once per run: -report and -figures-json render the
// values the run printed, computing only those it did not.
//
// Scale guidance: the paper's pools took four compute-weeks; the simulated
// cost meter (see DESIGN.md §4) compresses that to minutes. -scenarios 60
// (default) gives stable orderings; 150+ tightens the numbers.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	exp := flag.String("exp", "all", "experiment to run: table3, table4, table5, table6, table7, table8, table9, figure1, figure4, figure5, ablation, extension, all (those twelve, in order), or pool (build the HPO pool only)")
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
	progressEvery := flag.Duration("progress", 0, "print a progress line (scenarios done, strategy runs started, cumulative over all pools) to stderr at this interval (0 disables)")
	checkpointPrefix := flag.String("checkpoint", "", "stream completed scenarios to append-only JSONL checkpoints named PREFIX-LABEL.ckpt")
	resume := flag.Bool("resume", false, "resume -checkpoint files from an earlier run (config must match; completed scenarios are not re-run)")
	shardFlag := flag.String("shard", "", "run only shard i/n of every pool (e.g. 0/2); combine with -checkpoint, then reassemble with -merge")
	merge := flag.Bool("merge", false, "merge shard checkpoint files (positional arguments) into complete pools instead of running scenarios")
	figuresJSON := flag.String("figures-json", "", "write figure data as machine-readable JSON (non-finite values become null) to this file")
	evalStore := flag.String("eval-store", "", "directory of the durable content-addressed evaluation store shared across runs and shards; reruns replay stored trainings bit-identically")
	flag.Parse()

	cfg := bench.Config{
		Scenarios: *scenarios,
		Seed:      *seed,
		MaxEvals:  *maxEvals,
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

	// Observability is opt-in: without -trace, -debug-addr or -progress the
	// context carries no runtime and the pools run on the uninstrumented path.
	ctx, stopObs, err := obs.Setup(ctx, *tracePath, *debugAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	stopProgress := func() {}
	if *progressEvery > 0 {
		ctx, stopProgress = startProgress(ctx, *progressEvery, os.Stderr)
	}
	var store *evalstore.Store
	if *evalStore != "" {
		store, err = evalstore.Open(*evalStore, evalstore.Options{Metrics: obs.FromContext(ctx).Metrics()})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	// exit funnels every path through stopObs so flush/close failures (full
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
		stopProgress()
		if err := stopObs(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	r := &runner{
		ctx: ctx, cfg: cfg, outDir: *outDir, grid: *grid, figure1N: *figure1N,
		checkpoint: *checkpointPrefix, resume: *resume, shard: shard, store: store,
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

// startProgress prints bench.ProgressLine to w every interval, read off
// the metrics of ctx's runtime, so the counts are cumulative over the
// process's pools. When ctx carries no runtime (no -trace or -debug-addr)
// it injects one without a tracer into the returned context. The returned
// stop ends the ticker and waits for its last line.
func startProgress(ctx context.Context, every time.Duration, w io.Writer) (context.Context, func()) {
	rt := obs.FromContext(ctx)
	if rt == nil {
		rt = obs.New()
		ctx = obs.NewContext(ctx, rt)
	}
	t := time.NewTicker(every)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				fmt.Fprintln(w, bench.ProgressLine(rt.Metrics().Snapshot()))
			}
		}
	}()
	return ctx, func() {
		t.Stop()
		close(stop)
		<-done
	}
}

// dumpPool writes the HPO pool's raw per-strategy outcomes as CSV.
func (r *runner) dumpPool(path string) error {
	hpo, err := r.pool(hpoPool)
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

// writeReport emits the paper-vs-measured EXPERIMENTS document from the
// run's tables and figures, computing those the run did not.
func (r *runner) writeReport(path string) error {
	for _, e := range slices.Concat(tables, figures) {
		if _, err := e.result(r); err != nil {
			return err
		}
	}
	r.res.Scenarios, r.res.Seed, r.res.MaxEvals = r.cfg.Scenarios, r.cfg.Seed, r.cfg.MaxEvals
	return os.WriteFile(path, []byte(report.Generate(&r.res)), 0o644)
}

// writeFiguresJSON emits the run's figures as one NaN-free JSON document,
// computing those the run did not.
func (r *runner) writeFiguresJSON(path string) error {
	for _, e := range figures {
		if _, err := e.result(r); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := bench.WriteFiguresJSON(f, r.res.Figure1, r.res.Figure4, r.res.Figure5); err != nil {
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
	checkpoint string // -checkpoint path prefix ("" disables)
	resume     bool
	shard      bench.ShardSpec
	store      *evalstore.Store // -eval-store handle shared by every pool ("" disables)
	mergeOnly  bool             // pools come from -merge; never rebuild silently

	pools   [len(poolLabels)]*bench.Pool // by poolKind, built or merged on first use
	optEval *bench.OptimizerEval
	res     report.Results // the tables and figures computed so far
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
		kind := hpoPool
		switch {
		case p.Config.Mode == core.ModeMaximizeUtility:
			kind = utilityPool
		case !p.Config.HPO:
			kind = defaultPool
		}
		r.pools[kind] = p
		fmt.Fprintf(os.Stderr, "# merged %d checkpoint file(s) into a %d-scenario pool (%s)\n",
			len(groups[key]), len(p.Records), key)
	}
	r.mergeOnly = true
	return nil
}

// run prints one experiment, or all twelve for "all"; "pool" builds (or
// resumes, or merges) the HPO pool and nothing else: the unit of work for
// shard workers and checkpointed runs whose tables come later from a
// -merge invocation.
func (r *runner) run(exp string) error {
	if exp == "pool" {
		_, err := r.pool(hpoPool)
		return err
	}
	found := false
	for _, e := range experiments {
		if exp != "all" && exp != e.name {
			continue
		}
		found = true
		body, err := e.result(r)
		if err != nil {
			return err
		}
		if err := r.emit(e.name, e.title, body); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// experiment is one -exp entry. result computes the experiment into r.res
// the first time any output asks for it, then renders it as text; later
// calls render the stored value, so stdout, -out, -report and
// -figures-json all show one computation.
type experiment struct {
	name, title string
	result      func(r *runner) (string, error)
}

// tables and figures are the paper's §6 evaluation, the sections -report
// renders. experiments is -exp all's order: those, then the design
// ablations and the switching extension, which only print.
var (
	tables = []experiment{
		{"table3", "Table 3: fastest fraction and coverage per strategy", func(r *runner) (string, error) {
			if r.res.Table3 == nil {
				def, err := r.pool(defaultPool)
				if err != nil {
					return "", err
				}
				hpo, eval, err := r.optimizerEval()
				if err != nil {
					return "", err
				}
				r.res.Table3 = bench.Table3(def, hpo, eval)
			}
			return r.res.Table3.Render(), nil
		}},
		{"table4", "Table 4: failure distances and utility-mode normalized F1", func(r *runner) (string, error) {
			if r.res.Table4 == nil {
				hpo, err := r.pool(hpoPool)
				if err != nil {
					return "", err
				}
				util, err := r.pool(utilityPool)
				if err != nil {
					return "", err
				}
				r.res.Table4 = bench.Table4(hpo, util)
			}
			return r.res.Table4.Render(), nil
		}},
		{"table5", "Table 5: coverage per declared constraint type", func(r *runner) (string, error) {
			if r.res.Table5 == nil {
				hpo, err := r.pool(hpoPool)
				if err != nil {
					return "", err
				}
				r.res.Table5 = bench.Table5(hpo)
			}
			return r.res.Table5.Render(), nil
		}},
		{"table6", "Table 6: coverage per classification model", func(r *runner) (string, error) {
			if r.res.Table6 == nil {
				hpo, err := r.pool(hpoPool)
				if err != nil {
					return "", err
				}
				r.res.Table6 = bench.Table6(hpo)
			}
			return r.res.Table6.Render(), nil
		}},
		{"table7", "Table 7: feature-set transfer from LR (SFFS)", func(r *runner) (string, error) {
			if r.res.Table7 == nil {
				hpo, err := r.pool(hpoPool)
				if err != nil {
					return "", err
				}
				if r.res.Table7, err = bench.Table7(hpo, r.cfg.Seed); err != nil {
					return "", err
				}
			}
			return r.res.Table7.Render(), nil
		}},
		{"table8", "Table 8: greedy strategy portfolios", func(r *runner) (string, error) {
			if r.res.Table8 == nil {
				hpo, err := r.pool(hpoPool)
				if err != nil {
					return "", err
				}
				r.res.Table8 = bench.Table8(hpo)
			}
			return r.res.Table8.Render(), nil
		}},
		{"table9", "Table 9: meta-learning accuracy per strategy", func(r *runner) (string, error) {
			if r.res.Table9 == nil {
				hpo, eval, err := r.optimizerEval()
				if err != nil {
					return "", err
				}
				r.res.Table9 = bench.Table9(hpo, eval)
			}
			return r.res.Table9.Render(), nil
		}},
	}
	figures = []experiment{
		{"figure1", "Figure 1: accuracy trade-off scatter on COMPAS", func(r *runner) (string, error) {
			if r.res.Figure1 == nil {
				var err error
				if r.res.Figure1, err = bench.Figure1(r.figure1N, r.cfg.Seed); err != nil {
					return "", err
				}
			}
			return bench.RenderFigure1(r.res.Figure1), nil
		}},
		{"figure4", "Figure 4: per-dataset coverage heatmap", func(r *runner) (string, error) {
			if r.res.Figure4 == nil {
				hpo, eval, err := r.optimizerEval()
				if err != nil {
					return "", err
				}
				r.res.Figure4 = bench.Figure4(hpo, eval)
			}
			return r.res.Figure4.Render(), nil
		}},
		{"figure5", "Figure 5: fastest strategy per constraint pair on Adult", func(r *runner) (string, error) {
			if r.res.Figure5 == nil {
				var err error
				r.res.Figure5, err = bench.Figure5(bench.Figure5Config{
					GridN: r.grid, MaxEvals: r.cfg.MaxEvals, Seed: r.cfg.Seed, HPO: true,
				})
				if err != nil {
					return "", err
				}
			}
			return r.res.Figure5.Render(), nil
		}},
	}
	experiments = slices.Concat(tables, figures, []experiment{
		{"ablation", "Ablations: design choices of DESIGN.md", func(r *runner) (string, error) {
			pr, err := bench.PruningAblation("COMPAS", 5, r.cfg.Seed)
			if err != nil {
				return "", err
			}
			fl, err := bench.FloatingAblation("COMPAS", 5, r.cfg.Seed)
			if err != nil {
				return "", err
			}
			tp, err := bench.TPEAblation("COMPAS", 5, r.cfg.Seed)
			if err != nil {
				return "", err
			}
			return "-- evaluation-independent pruning (SBS under a 15% feature cap) --\n" + pr.Render() +
				"\n-- floating step (Pudil et al.) --\n" + fl.Render() +
				"\n-- TPE vs random top-k search --\n" + tp.Render(), nil
		}},
		{"extension", "Extension: dynamic strategy switching (warm-started sequence vs. best single)", func(r *runner) (string, error) {
			seq, err := bench.SequenceExperiment("COMPAS", 10, r.cfg.Seed)
			if err != nil {
				return "", err
			}
			return seq.Render(), nil
		}},
	})
)

// poolKind names one of the three scenario pools the experiments read; its
// value is also the pool's seed offset from -seed.
type poolKind int

const (
	defaultPool poolKind = iota // default hyperparameters, seed -seed (Table 3)
	hpoPool                     // HPO grids, seed -seed+1 (every table and Figure 4)
	utilityPool                 // utility mode, half the scenarios, seed -seed+2 (Table 4)
)

// poolLabels name the pools, by poolKind, in stderr lines and checkpoint
// file names.
var poolLabels = [...]string{"default-parameter", "HPO", "utility-mode"}

// pool returns the kind's pool, building it on first use. In -merge mode a
// pool the merge did not provide is an error: rebuilding it would silently
// mask missing shards (and make any downstream diff pass trivially).
func (r *runner) pool(kind poolKind) (*bench.Pool, error) {
	if p := r.pools[kind]; p != nil {
		return p, nil
	}
	label := poolLabels[kind]
	if r.mergeOnly {
		return nil, fmt.Errorf("-merge did not provide the %s pool; pass its shard checkpoints or drop -merge", label)
	}
	cfg := r.cfg
	cfg.HPO = kind != defaultPool
	cfg.Seed += uint64(kind)
	if kind == utilityPool {
		cfg.Mode = core.ModeMaximizeUtility
		cfg.Scenarios = r.cfg.Scenarios / 2 // mirrors the paper's smaller utility pool
		if cfg.Scenarios == 0 {
			cfg.Scenarios = 1
		}
	}
	p, err := r.buildPool(label, cfg)
	if err != nil {
		return nil, err
	}
	r.pools[kind] = p
	return p, nil
}

// optimizerEval returns the HPO pool and the DFS optimizer's
// leave-one-dataset-out evaluation on it, trained once per run.
func (r *runner) optimizerEval() (*bench.Pool, *bench.OptimizerEval, error) {
	hpo, err := r.pool(hpoPool)
	if err != nil {
		return nil, nil, err
	}
	if r.optEval == nil {
		fmt.Fprintln(os.Stderr, "# training DFS optimizer (leave-one-dataset-out)...")
		if r.optEval, err = bench.EvaluateOptimizer(hpo, r.cfg.Seed); err != nil {
			return nil, nil, err
		}
	}
	return hpo, r.optEval, nil
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
