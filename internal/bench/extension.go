package bench

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// SequenceExperimentResult evaluates the dynamic strategy-switching
// extension (the paper's §7 future work, implemented in core.RunSequence):
// a warm-started sequence of complementary strategies against the best
// single strategy under the same total budget.
type SequenceExperimentResult struct {
	// Trials is the number of fuzzed scenarios (only satisfiable-by-either
	// ones count toward the rates).
	Trials int
	// Comparable counts scenarios at least one contender satisfied.
	Comparable int
	// SingleSatisfied / SequenceSatisfied count satisfactions.
	SingleSatisfied, SequenceSatisfied int
	// SingleName is the single-strategy contender.
	SingleName string
	// SequenceNames lists the sequence stages.
	SequenceNames []string
}

// SequenceExperiment fuzzes scenarios on the given dataset and compares
// SFFS(NR) alone against the sequence TPE(FCBF) → SFFS(NR) → TPE(NR) (the
// top of Table 8's coverage portfolio, run serially with warm starts
// instead of in parallel).
func SequenceExperiment(datasetName string, trials int, seed uint64) (*SequenceExperimentResult, error) {
	d, err := getDataset(seed, datasetName)
	if err != nil {
		return nil, err
	}
	res := &SequenceExperimentResult{
		Trials:        trials,
		SingleName:    "SFFS(NR)",
		SequenceNames: []string{"TPE(FCBF)", "SFFS(NR)", "TPE(NR)"},
	}
	rng := xrand.NewStream(seed, 0x5e60)
	for trial := 0; trial < trials; trial++ {
		cs := constraint.Sample(rng, constraint.SamplerConfig{MinSearchCost: 50, MaxSearchCost: 1500})
		scn, err := core.NewScenario(d, model.KindLR, cs, false, core.ModeSatisfy, seed+uint64(trial))
		if err != nil {
			return nil, err
		}
		single, err := core.New(res.SingleName)
		if err != nil {
			return nil, err
		}
		singleOut, err := core.RunStrategy(context.Background(), single, scn, nil, nil, seed+uint64(trial), 150)
		if err != nil {
			return nil, err
		}
		var stages []core.Strategy
		for _, n := range res.SequenceNames {
			s, err := core.New(n)
			if err != nil {
				return nil, err
			}
			stages = append(stages, s)
		}
		seqOut, err := core.RunSequence(stages, scn, seed+uint64(trial), 150)
		if err != nil {
			return nil, err
		}
		if singleOut.Satisfied || seqOut.Satisfied {
			res.Comparable++
		}
		if singleOut.Satisfied {
			res.SingleSatisfied++
		}
		if seqOut.Satisfied {
			res.SequenceSatisfied++
		}
	}
	return res, nil
}

// Render formats the sequence experiment.
func (r *SequenceExperimentResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %10s\n", "Contender", "Satisfied")
	fmt.Fprintf(&b, "%-40s %7d/%-2d\n", r.SingleName, r.SingleSatisfied, r.Comparable)
	fmt.Fprintf(&b, "%-40s %7d/%-2d\n",
		"Sequence("+strings.Join(r.SequenceNames, " → ")+")", r.SequenceSatisfied, r.Comparable)
	return b.String()
}

// PoolCSVHeader is the column header of the pool CSV dump, shared by the
// whole-pool writer and the serving layer's record-at-a-time streamer.
func PoolCSVHeader() []string {
	return []string{
		"scenario", "dataset", "model",
		"min_f1", "max_feature_frac", "min_eo", "min_safety", "privacy_eps", "budget",
		"satisfiable", "strategy", "satisfied", "cost_at_solution", "total_cost",
		"evaluations", "best_val_distance", "test_f1", "test_eo", "test_safety", "num_features",
	}
}

// WriteRecordCSV writes one record's rows (one per strategy, Table 3 order
// after the Original Features baseline) to cw. The rows are exactly the
// ones WritePoolCSV emits for the record, so a stream of WriteRecordCSV
// calls in scenario-ID order is byte-identical to the whole-pool dump.
func WriteRecordCSV(cw *csv.Writer, r *Record) error {
	names := append([]string{core.OriginalFeaturesName}, core.StrategyNames...)
	for _, s := range names {
		out, ok := r.Results[s]
		if !ok {
			return errors.New("bench: record missing strategy " + s)
		}
		row := []string{
			strconv.Itoa(r.ID), r.Dataset, string(r.Model),
			f(r.Constraints.MinF1), f(r.Constraints.MaxFeatureFrac),
			f(r.Constraints.MinEO), f(r.Constraints.MinSafety),
			f(r.Constraints.PrivacyEps), f(r.Constraints.MaxSearchCost),
			strconv.FormatBool(r.Satisfiable()), s,
			strconv.FormatBool(out.Satisfied),
			f(out.CostAtSolution), f(out.TotalCost),
			strconv.Itoa(out.Evaluations), f(out.BestValDistance),
			f(out.TestScores.F1), f(out.TestScores.EO), f(out.TestScores.Safety),
			strconv.Itoa(len(out.Features)),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

// WritePoolCSV dumps the raw per-scenario, per-strategy outcomes so the
// pool can be re-analyzed outside this harness. One row per (scenario,
// strategy) pair.
func WritePoolCSV(w io.Writer, p *Pool) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(PoolCSVHeader()); err != nil {
		return err
	}
	for i := range p.Records {
		if err := WriteRecordCSV(cw, &p.Records[i]); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
