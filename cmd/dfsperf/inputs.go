package main

import (
	"fmt"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/serve"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Every config and job spec a workload runs is generated here from the -seed
// flag; nothing else sees the seed.
//
// A scenario's cost depends far more on its composition than on its draw:
// at bench's default MaxEvals of 120, single scenarios cost 0.4–6.6
// CPU-seconds depending on dataset, model and which optional constraints are
// present, while the cost of one slot below moved by at most a third over
// ten seeds. A handful of randomly composed scenarios per run would give
// ±30% from one seed to the next. Pool workloads therefore use stratified inputs: the
// composition of each scenario (dataset, model, which constraints are
// present, whether F1 is easy or hard) is fixed by a slot, and the seed
// draws everything else from bench's default sampler — the constraint
// thresholds and budget, the synthetic data, the splits and every strategy's
// random stream.

// slot fixes the composition of one pool scenario.
type slot struct {
	Dataset string
	Model   model.Kind
	// FeatureCap, EO, Safety and Privacy say which optional constraints of
	// Listing 1 the scenario declares. A declared feature cap is drawn from
	// [minFeatureCap, 1): below it a capped search's cost follows the cap
	// (German Credit at MaxEvals 120: 2.4 CPU-seconds at a cap of 0.35, 3.4
	// at 0.57, 3.8–4.0 from 0.74 up), and that one draw would decide a run.
	FeatureCap, EO, Safety, Privacy bool
	// Hard draws MinF1 >= 0.8, which almost no strategy meets, so every
	// search runs until MaxEvals or its budget stops it; otherwise
	// MinF1 < 0.6 and the first evaluations already satisfy it.
	Hard bool
}

// poolSlots is the paper-shaped scenario mix of the pool workloads: each of
// the three models twice, every optional constraint in a third to a half of
// the scenarios, six of the 19 profiles, one easy scenario. Adult (6.6
// CPU-seconds alone) and Students are left out so that a round fits the
// benchmark's time budget.
var poolSlots = []slot{
	{Dataset: "COMPAS", Model: model.KindLR, EO: true, Hard: true},
	{Dataset: "German Credit", Model: model.KindDT, FeatureCap: true, Safety: true, Hard: true},
	{Dataset: "Titanic", Model: model.KindNB, Privacy: true, Hard: true},
	{Dataset: "Indian Liver Patient", Model: model.KindNB, FeatureCap: true, EO: true, Safety: true, Hard: true},
	{Dataset: "Social Mobility", Model: model.KindLR},
	{Dataset: "Telco Customer Churn", Model: model.KindDT, Safety: true, Privacy: true, Hard: true},
}

// servedDatasets are the profiles of the served job specs, one per spec.
// A warm job's cost is dominated by regenerating its dataset, so each spec
// pins one profile and the seed draws the rest.
var servedDatasets = []string{"COMPAS", "Titanic", "German Credit", "Students"}

// sizes scale a workload's inputs; full is the benchmark of record and the
// smoke test runs tiny.
type sizes struct {
	Slots          int // pool slots used, a prefix of poolSlots
	MaxEvals       int // pool_cold and pool_store; bench's default is 120
	EvalTierEvals  int // traced pool_store replays its stores at this
	Specs          int // serve_warm job specs
	SpecScenarios  int // scenarios per serve_warm job
	FanSpecs       int // fanout_warm job specs
	FanScenarios   int // scenarios per fanout_warm job
	RoundJobs      int // jobs per serve_warm round
	FanRoundJobs   int // jobs per fanout_warm round
	SetupReps      int // set-up-only cycles before the rounds, for setup_s
	RecordTierReps int // traced pool_store: record-tier rebuilds per round
}

var fullSizes = sizes{
	Slots: len(poolSlots), MaxEvals: 120, EvalTierEvals: 60,
	Specs: len(servedDatasets), SpecScenarios: 4, FanSpecs: 2, FanScenarios: 8,
	RoundJobs: 160, FanRoundJobs: 24, SetupReps: 40, RecordTierReps: 5,
}

// predict mirrors bench's per-scenario draw: scenario i of a pool reads
// stream 2i+1 of the pool seed for its dataset, then its model, then its
// constraints. Pool workloads assert after every build that each record
// carries exactly the predicted composition, so a change to the sampler
// fails the benchmark instead of silently changing its workload.
func predict(cfg bench.Config, i int) (string, model.Kind, constraint.Set) {
	sampler := cfg.Sampler
	if sampler == (constraint.SamplerConfig{}) {
		sampler = constraint.DefaultSamplerConfig()
	}
	rng := xrand.NewStream(cfg.Seed, uint64(i)*2+1)
	name := cfg.Datasets[rng.Intn(len(cfg.Datasets))]
	kind := model.Kinds[rng.Intn(len(model.Kinds))]
	return name, kind, constraint.Sample(rng, sampler)
}

// minFeatureCap is the smallest feature cap a slot accepts; see slot.
const minFeatureCap = 0.75

// matches reports whether a drawn scenario has the slot's composition.
func (s slot) matches(kind model.Kind, cs constraint.Set) bool {
	if kind != s.Model || (cs.MaxFeatureFrac < 1) != s.FeatureCap || (cs.MinEO > 0) != s.EO ||
		(cs.MinSafety > 0) != s.Safety || (cs.PrivacyEps > 0) != s.Privacy || cs.MaxFeatureFrac < minFeatureCap {
		return false
	}
	if s.Hard {
		return cs.MinF1 >= 0.8
	}
	return cs.MinF1 < 0.6
}

// slotConfigs returns one single-scenario pool config per slot: the first
// pool seed drawn from the slot's own stream of seed whose scenario has the
// slot's composition (about one draw in a hundred).
func slotConfigs(seed uint64, sz sizes) ([]bench.Config, error) {
	out := make([]bench.Config, 0, sz.Slots)
	for k, s := range poolSlots[:sz.Slots] {
		rng := xrand.NewStream(seed, uint64(k))
		found := false
		for try := 0; try < 100000 && !found; try++ {
			cfg := bench.Config{
				Scenarios: 1, Seed: rng.Uint64(), MaxEvals: sz.MaxEvals,
				Datasets: []string{s.Dataset},
			}
			if _, kind, cs := predict(cfg, 0); s.matches(kind, cs) {
				out = append(out, cfg)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("no pool seed gives slot %d (%+v)", k, s)
		}
	}
	return out, nil
}

// checkComposition verifies a built pool holds the scenarios predict drew.
func checkComposition(cfg bench.Config, p *bench.Pool) error {
	for i := range p.Records {
		r := &p.Records[i]
		name, kind, cs := predict(cfg, r.ID)
		if r.Dataset != name || r.Model != kind || r.Constraints != cs {
			return fmt.Errorf("pool seed %d scenario %d is %s/%s/%s, the input generator predicted %s/%s/%s: bench's scenario sampler changed, update predict",
				cfg.Seed, r.ID, r.Dataset, r.Model, r.Constraints, name, kind, cs)
		}
	}
	return nil
}

// specMaxEvals is the MaxEvals of served jobs. A warm job replays whole
// records, so the searches' length barely moves its cost, while it sets
// what warming the store in prepare costs.
const specMaxEvals = 2

// jobSpecs returns n served job specs of the given scenario count, cycling
// through the served datasets.
func jobSpecs(seed uint64, n, scenarios int) []serve.JobSpec {
	out := make([]serve.JobSpec, n)
	for i := range out {
		out[i] = serve.JobSpec{
			Scenarios: scenarios,
			Seed:      xrand.NewStream(seed, 0x5e7e0000+uint64(i)).Uint64(),
			MaxEvals:  specMaxEvals,
			Datasets:  []string{servedDatasets[i%len(servedDatasets)]},
		}
	}
	return out
}

// specConfig is the pool config a daemon derives from a job spec, so a pool
// warmed with it leaves exactly the records the daemon will look up.
func specConfig(sp serve.JobSpec) bench.Config {
	return bench.Config{Scenarios: sp.Scenarios, Seed: sp.Seed, MaxEvals: sp.MaxEvals, Datasets: sp.Datasets}
}
