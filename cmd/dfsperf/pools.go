package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/synth"
)

// minEvalTierHitShare is the share of store lookups an eval-tier replay must
// answer from disk; below it the replay trained models and measured the
// wrong thing.
const minEvalTierHitShare = 0.95

// poolBed runs the pool workloads. An operation is one single-scenario
// bench.BuildPoolResumed call for one config of the stratified inputs of
// inputs.go; a round builds every config once on e.clients closed-loop
// callers. A build's cost depends on its slot, so a round always builds all
// of them.
//
//   - pool_cold (no store): the first round's CSVs are the references;
//     every later round must reproduce them.
//   - pool_store: each round builds into a fresh store, opened at set-up
//     and closed (flushed and fsync'd) at the end of the round's work. The
//     references are store-less builds made in prepare. A traced round then
//     replays the store it filled at the eval and record tiers (replayTiers).
type poolBed struct {
	e     *env
	store bool

	cfgs []bench.Config // what the rounds build
	refs [][]byte       // reference CSV per config; nil until known (cold)

	dir string           // the round's store directory
	st  *evalstore.Store // the round's store, open between setUp and the end of work

	evalCfgs []bench.Config // cfgs at EvalTierEvals, with their store-less
	evalRefs [][]byte       // references; made by the first traced round
}

func (b *poolBed) prepare(ctx context.Context) error {
	cfgs, err := slotConfigs(b.e.seed, b.e.sz)
	if err != nil {
		return err
	}
	b.cfgs = cfgs
	b.refs = make([][]byte, len(cfgs))
	if !b.store {
		return nil
	}
	refs, err := buildAll(ctx, cfgs, b.e.clients, nil)
	if err != nil {
		return fmt.Errorf("references: %w", err)
	}
	for i := range refs {
		b.refs[i] = b.e.tamperRef(i, refs[i])
	}
	return nil
}

// buildAll builds every config store-less (or into st) on c callers and
// returns the CSVs, checking each pool's composition.
func buildAll(ctx context.Context, cfgs []bench.Config, c int, st *evalstore.Store) ([][]byte, error) {
	out := make([][]byte, len(cfgs))
	errs := make([]error, len(cfgs))
	closedLoop(len(cfgs), c, func(i int) {
		p, err := bench.BuildPoolResumed(ctx, cfgs[i], bench.RunOptions{Store: st})
		if err == nil {
			out[i], err = checkedCSV(cfgs[i], p)
		}
		errs[i] = err
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

func poolCSV(p *bench.Pool) ([]byte, error) {
	var buf bytes.Buffer
	if err := bench.WritePoolCSV(&buf, p); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkedCSV is a built pool's CSV after checking its composition.
func checkedCSV(cfg bench.Config, p *bench.Pool) ([]byte, error) {
	if err := checkComposition(cfg, p); err != nil {
		return nil, err
	}
	return poolCSV(p)
}

// checkAgainst checks a built pool against its reference CSV.
func checkAgainst(cfg bench.Config, ref []byte, p *bench.Pool) error {
	got, err := checkedCSV(cfg, p)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, ref) {
		return fmt.Errorf("pool seed %d: CSV differs from its reference (%d vs %d bytes)", cfg.Seed, len(got), len(ref))
	}
	return nil
}

func (b *poolBed) stage() error {
	if b.store {
		b.dir = b.e.freshDir("store")
	}
	return nil
}

// setUp materializes the datasets the round's builds read and opens the
// store they build into.
func (b *poolBed) setUp(ctx context.Context, tr *tracing) error {
	tr.attachLocal()
	for _, c := range b.cfgs {
		p, err := synth.ByName(c.Datasets[0])
		if err != nil {
			return err
		}
		if _, err := synth.GenerateDataset(&p, c.Seed); err != nil {
			return err
		}
	}
	if !b.store {
		return nil
	}
	start := time.Now()
	st, err := evalstore.Open(b.dir, evalstore.Options{Metrics: tr.registry()})
	if err != nil {
		return err
	}
	tr.timeOpen(time.Since(start))
	b.st = st
	return nil
}

// work builds every config once, checks each CSV against its reference,
// and closes the round's store.
func (b *poolBed) work(ctx context.Context, tr *tracing, ph *phase) error {
	var before evalstore.Stats
	if b.st != nil {
		before = b.st.Stats()
	}
	closedLoop(len(b.cfgs), b.e.clients, func(i int) {
		start := time.Now()
		p, err := tr.wrap(bench.BuildPoolResumed, roleLocal, 0)(tr.context(ctx), b.cfgs[i], bench.RunOptions{Store: b.st})
		end := time.Now()
		if err == nil {
			err = b.check(i, p)
		}
		ph.record(start, end, err)
	})
	if b.st == nil {
		return ctx.Err()
	}
	tr.storeDelta(before, b.st.Stats())
	start := time.Now()
	err := b.st.Close()
	b.st = nil
	tr.timeClose(time.Since(start))
	return errors.Join(err, ctx.Err())
}

func (b *poolBed) check(i int, p *bench.Pool) error {
	if b.refs[i] == nil {
		// The first cold build of a config is its reference; config i is
		// built once per round and rounds are sequential, so nothing races.
		got, err := checkedCSV(b.cfgs[i], p)
		b.refs[i] = b.e.tamperRef(i, got)
		return err
	}
	return checkAgainst(b.cfgs[i], b.refs[i], p)
}

// tearDown closes a store a failed round left open and removes the round's
// store; a traced pool_store round first replays it at the eval and record
// tiers.
func (b *poolBed) tearDown(ctx context.Context, tr *tracing) error {
	var err error
	if b.st != nil {
		err = b.st.Close()
		b.st = nil
	}
	if err == nil && tr != nil && b.store {
		err = b.replayTiers(ctx, tr)
	}
	if b.dir != "" {
		err = errors.Join(err, os.RemoveAll(b.dir))
		b.dir = ""
	}
	return err
}

// replayTiers times the read path of the store the round just filled. It
// reopens the store and rebuilds every config at EvalTierEvals: each
// evaluation is a prefix of a stored search, so a disk hit, while the
// whole-record probe misses. Those rebuilds write their records back, so
// RecordTierReps further rebuilds each replay every scenario whole. The
// rebuilds carry a private runtime, which keeps them out of the traced
// round's counters and proves no evaluation trained; a replay that trained
// or missed the disk fails the run.
func (b *poolBed) replayTiers(ctx context.Context, tr *tracing) error {
	if b.evalRefs == nil {
		b.evalCfgs = make([]bench.Config, len(b.cfgs))
		for i, c := range b.cfgs {
			c.MaxEvals = b.e.sz.EvalTierEvals
			b.evalCfgs[i] = c
		}
		refs, err := buildAll(ctx, b.evalCfgs, b.e.clients, nil)
		if err != nil {
			return fmt.Errorf("eval-tier references: %w", err)
		}
		b.evalRefs = refs
	}
	start := time.Now()
	st, err := evalstore.Open(b.dir, evalstore.Options{})
	if err != nil {
		return err
	}
	tr.timeOpen(time.Since(start))
	rt := obs.New()
	rctx := obs.NewContext(ctx, rt)
	rebuild := func(record func(time.Duration)) error {
		errs := make([]error, len(b.evalCfgs))
		closedLoop(len(b.evalCfgs), b.e.clients, func(i int) {
			start := time.Now()
			p, err := bench.BuildPoolResumed(rctx, b.evalCfgs[i], bench.RunOptions{Store: st})
			record(time.Since(start))
			if err == nil {
				err = checkAgainst(b.evalCfgs[i], b.evalRefs[i], p)
			}
			errs[i] = err
		})
		return errors.Join(errs...)
	}

	before, c0 := st.Stats(), readCPU()
	err = rebuild(tr.evalTierBuild)
	after := st.Stats()
	tr.evalTier(c0.to(readCPU()).work(), len(b.evalCfgs), before, after)
	if err == nil {
		err = evalTierValid(before, after)
	}
	for rep := 0; err == nil && rep < b.e.sz.RecordTierReps; rep++ {
		err = rebuild(tr.recordTierBuild)
	}
	if n := rt.Metrics().Snapshot().Counter("evals.trained"); err == nil && n > 0 {
		err = fmt.Errorf("eval and record tiers trained %d evaluations, want 0", n)
	}
	return errors.Join(err, st.Close())
}

// evalTierValid checks that an eval-tier replay was served from disk.
func evalTierValid(before, after evalstore.Stats) error {
	hits := after.HitsDisk - before.HitsDisk
	misses := after.Misses - before.Misses
	if hits+misses == 0 {
		return fmt.Errorf("eval tier: no store lookups")
	}
	if share := float64(hits) / float64(hits+misses); share < minEvalTierHitShare {
		return fmt.Errorf("eval tier: store hit share %.3f < %.2f (%d hits, %d misses): the replay trained models", share, minEvalTierHitShare, hits, misses)
	}
	return nil
}

func (b *poolBed) storeDir() string { return "" }

// minRounds is two for pool_cold, whose first round is the reference.
func (b *poolBed) minRounds() int {
	if b.store {
		return 1
	}
	return 2
}

func (b *poolBed) probeInputs() ([]probeInput, error) {
	return slotProbeInputs(b.cfgs)
}

// slotProbeInputs materializes scenario 0 of each config exactly as the
// pool build does.
func slotProbeInputs(cfgs []bench.Config) ([]probeInput, error) {
	out := make([]probeInput, 0, len(cfgs))
	for _, c := range cfgs {
		name, kind, cs := predict(c, 0)
		p, err := synth.ByName(name)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		d, err := synth.GenerateDataset(&p, c.Seed)
		gen := time.Since(t)
		if err != nil {
			return nil, err
		}
		scn, err := core.NewScenario(d, kind, cs, c.HPO, c.Mode, c.Seed)
		if err != nil {
			return nil, err
		}
		out = append(out, probeInput{train: scn.Split.Train, kind: kind, seed: c.Seed, generate: gen})
	}
	return out, nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
