package dfs

// One testing.B benchmark per table and figure of the paper's evaluation
// (§6). Each benchmark regenerates its experiment on a scaled-down scenario
// pool per iteration; run the full-scale versions with cmd/benchmark. Every
// iteration of a benchmark runs under the same seed, so the work of one op
// does not depend on -benchtime.
//
//	go test -bench=. -benchmem

import (
	"context"
	"sync"
	"testing"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/evalstore"
)

// benchConfig is the scaled-down pool configuration shared by the table
// benchmarks.
func benchConfig(mode core.Mode, hpo bool) bench.Config {
	return bench.Config{
		Scenarios: 8,
		Seed:      7,
		HPO:       hpo,
		Mode:      mode,
		MaxEvals:  20,
		Datasets:  []string{"COMPAS", "Indian Liver Patient", "Irish Educational Transitions"},
		Sampler:   constraint.SamplerConfig{MinSearchCost: 10, MaxSearchCost: 1500},
	}
}

var (
	poolOnce    sync.Once
	defaultPool *bench.Pool
	hpoPool     *bench.Pool
	utilityPool *bench.Pool
	poolErr     error
)

// pools builds the three shared scenario pools (default params, HPO,
// utility mode) once; the table benchmarks measure only the aggregation on
// top of them unless they explicitly rebuild.
func pools(b *testing.B) (*bench.Pool, *bench.Pool, *bench.Pool) {
	b.Helper()
	poolOnce.Do(func() {
		defaultPool, poolErr = bench.BuildPool(benchConfig(core.ModeSatisfy, false))
		if poolErr != nil {
			return
		}
		hpoPool, poolErr = bench.BuildPool(benchConfig(core.ModeSatisfy, true))
		if poolErr != nil {
			return
		}
		utilityPool, poolErr = bench.BuildPool(benchConfig(core.ModeMaximizeUtility, true))
	})
	if poolErr != nil {
		b.Fatal(poolErr)
	}
	return defaultPool, hpoPool, utilityPool
}

// BenchmarkScenarioPool measures the end-to-end cost of fuzzing scenarios
// and running all 16 strategies plus the baseline — the raw material of
// every table.
func BenchmarkScenarioPool(b *testing.B) {
	cfg := benchConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 2
	cfg.Seed = 1
	for i := 0; i < b.N; i++ {
		if _, err := bench.BuildPool(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioPoolWarmStore measures the same build served from a
// pre-populated durable evaluation store: every subset evaluation is a disk
// hit, so the gap to BenchmarkScenarioPool is the training time the store
// saves across reruns, shards, and restarts.
func BenchmarkScenarioPoolWarmStore(b *testing.B) {
	cfg := benchConfig(core.ModeSatisfy, false)
	cfg.Scenarios = 2
	cfg.Seed = 1
	dir := b.TempDir()
	ctx := context.Background()

	// Populate the store with the build the timed loop replays.
	store, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := bench.BuildPoolResumed(ctx, cfg, bench.RunOptions{Store: store}); err != nil {
		store.Close()
		b.Fatal(err)
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}

	store, err = evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.BuildPoolResumed(ctx, cfg, bench.RunOptions{Store: store}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := store.Stats(); st.Misses > 0 {
		b.Fatalf("warm benchmark missed the store %d times: %s", st.Misses, st)
	}
}

// BenchmarkTable3 regenerates Table 3: coverage and fastest fraction per
// strategy under default parameters and HPO, plus optimizer and oracle rows
// (includes LODO training).
func BenchmarkTable3(b *testing.B) {
	def, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval, err := bench.EvaluateOptimizer(hpo, 5)
		if err != nil {
			b.Fatal(err)
		}
		bench.Table3(def, hpo, eval)
	}
}

// BenchmarkTable4 regenerates Table 4: failure distances and the normalized
// F1 of the utility-driven benchmark.
func BenchmarkTable4(b *testing.B) {
	_, hpo, util := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table4(hpo, util)
	}
}

// BenchmarkTable5 regenerates Table 5: coverage conditioned on the declared
// optional constraint.
func BenchmarkTable5(b *testing.B) {
	_, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table5(hpo)
	}
}

// BenchmarkTable6 regenerates Table 6: coverage per classification model.
func BenchmarkTable6(b *testing.B) {
	_, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table6(hpo)
	}
}

// BenchmarkTable7 regenerates Table 7: transferability of LR-found feature
// sets to DT, NB, and SVM models (includes the retraining).
func BenchmarkTable7(b *testing.B) {
	_, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Table7(hpo, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8 regenerates Table 8: greedy strategy portfolios for
// coverage and fastest answering.
func BenchmarkTable8(b *testing.B) {
	_, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Table8(hpo)
	}
}

// BenchmarkTable9 regenerates Table 9: the meta-learner's per-strategy
// precision/recall/F1 under leave-one-dataset-out (includes LODO training).
func BenchmarkTable9(b *testing.B) {
	_, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval, err := bench.EvaluateOptimizer(hpo, 9)
		if err != nil {
			b.Fatal(err)
		}
		bench.Table9(hpo, eval)
	}
}

// BenchmarkFigure1 regenerates Figure 1: the accuracy trade-off scatter of
// random feature subsets on COMPAS across LR, NB, and DT.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure1(6, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4: the per-dataset coverage heatmap
// with optimizer and oracle rows (includes LODO training).
func BenchmarkFigure4(b *testing.B) {
	_, hpo, _ := pools(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval, err := bench.EvaluateOptimizer(hpo, 9)
		if err != nil {
			b.Fatal(err)
		}
		bench.Figure4(hpo, eval)
	}
}

// BenchmarkFigure5 regenerates Figure 5: the fastest-strategy grid over the
// four accuracy × {EO, privacy, #features, safety} constraint pairs.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := bench.Figure5(bench.Figure5Config{
			GridN: 2, Budget: 300, MaxEvals: 10, Dataset: "COMPAS", Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPruning measures the evaluation-independent pruning
// ablation (DESIGN.md design choice, Table 1 semantics).
func BenchmarkAblationPruning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.PruningAblation("COMPAS", 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFloating measures the floating-step ablation
// (SFS vs SFFS, SBS vs SBFS).
func BenchmarkAblationFloating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.FloatingAblation("COMPAS", 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTPE measures TPE-guided vs random top-k search.
func BenchmarkAblationTPE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.TPEAblation("COMPAS", 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelect measures the public API's end-to-end selection path.
func BenchmarkSelect(b *testing.B) {
	d, err := GenerateBuiltin("COMPAS", 42)
	if err != nil {
		b.Fatal(err)
	}
	cs := Constraints{MinF1: 0.6, MaxSearchCost: 500, MaxFeatureFrac: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Select(d, LR, cs, WithSeed(1), WithMaxEvaluations(30)); err != nil {
			b.Fatal(err)
		}
	}
}
