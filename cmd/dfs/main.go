// Command dfs runs one declarative feature selection scenario described by
// a JSON spec and prints the outcome as JSON.
//
// Usage:
//
//	dfs -spec scenario.json
//	echo '{"dataset":"COMPAS","model":"LR","min_f1":0.6,"max_search_cost":1000}' | dfs -spec -
//
// Spec fields:
//
//	dataset          built-in profile name (see -list) or path to a CSV in
//	                 the package layout (feature headers name:num /
//	                 name:cat:<card>, then __target__ and __sensitive__)
//	model            LR | NB | DT | SVM              (default LR)
//	strategy         one of the 16 strategy names    (default SFFS(NR))
//	min_f1           mandatory accuracy threshold
//	max_search_cost  mandatory budget in cost units
//	max_feature_frac optional cap on the selected feature fraction
//	min_eo           optional equal-opportunity threshold
//	min_safety       optional empirical-robustness threshold
//	privacy_eps      optional differential-privacy budget ε
//	hpo              enable hyperparameter grid search
//	utility          keep optimizing F1 after satisfaction (Eq. 2)
//	seed             determinism seed                 (default 1)
//	max_evaluations  cap on trained subsets           (default 0: unlimited)
//	eval_store       directory of the durable evaluation store; reruns of the
//	                 same spec replay stored trainings bit-identically
//
// Keys not listed here are ignored, so a spec that still sets a field an
// older build read parses and selects exactly as it would without it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	dfs "github.com/declarative-fs/dfs"
	"github.com/declarative-fs/dfs/internal/obs"
)

type spec struct {
	Dataset        string  `json:"dataset"`
	Model          string  `json:"model"`
	Strategy       string  `json:"strategy"`
	MinF1          float64 `json:"min_f1"`
	MaxSearchCost  float64 `json:"max_search_cost"`
	MaxFeatureFrac float64 `json:"max_feature_frac"`
	MinEO          float64 `json:"min_eo"`
	MinSafety      float64 `json:"min_safety"`
	PrivacyEps     float64 `json:"privacy_eps"`
	HPO            bool    `json:"hpo"`
	Utility        bool    `json:"utility"`
	Seed           uint64  `json:"seed"`
	MaxEvaluations int     `json:"max_evaluations"`
	DataSeed       uint64  `json:"data_seed"`
	EvalStore      string  `json:"eval_store"`
}

type output struct {
	Satisfied    bool       `json:"satisfied"`
	Strategy     string     `json:"strategy"`
	Features     []int      `json:"features,omitempty"`
	FeatureNames []string   `json:"feature_names,omitempty"`
	Validation   dfs.Scores `json:"validation"`
	Test         dfs.Scores `json:"test"`
	Cost         float64    `json:"cost"`
	BestDistance float64    `json:"best_distance"`
}

func main() {
	specPath := flag.String("spec", "", "path to the JSON scenario spec ('-' for stdin)")
	list := flag.Bool("list", false, "list built-in datasets and strategies, then exit")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof and /metrics on this address while the run lasts")
	tracePath := flag.String("trace", "", "write a JSONL span trace of the run to this file")
	flag.Parse()

	if *list {
		fmt.Println("datasets:")
		for _, n := range dfs.BuiltinDatasets() {
			fmt.Println("  " + n)
		}
		fmt.Println("strategies:")
		for _, n := range dfs.Strategies() {
			fmt.Println("  " + n)
		}
		return
	}
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "dfs: -spec is required (see -h)")
		os.Exit(2)
	}
	if err := run(*specPath, *debugAddr, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "dfs:", err)
		os.Exit(1)
	}
}

// run executes the spec at specPath and prints the selection as JSON. A
// trace that could not be written fails the run like any other error.
func run(specPath, debugAddr, tracePath string) (err error) {
	var raw []byte
	if specPath == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(specPath)
	}
	if err != nil {
		return err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return fmt.Errorf("parsing spec: %w", err)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.DataSeed == 0 {
		s.DataSeed = 42
	}

	d, err := loadDataset(s)
	if err != nil {
		return err
	}
	cs := dfs.Constraints{
		MinF1:          s.MinF1,
		MaxSearchCost:  s.MaxSearchCost,
		MaxFeatureFrac: s.MaxFeatureFrac,
		MinEO:          s.MinEO,
		MinSafety:      s.MinSafety,
		PrivacyEps:     s.PrivacyEps,
	}
	if cs.MaxFeatureFrac == 0 {
		cs.MaxFeatureFrac = 1
	}
	opts := []dfs.Option{dfs.WithSeed(s.Seed)}
	if s.Strategy != "" {
		opts = append(opts, dfs.WithStrategy(s.Strategy))
	}
	if s.HPO {
		opts = append(opts, dfs.WithHPO())
	}
	if s.Utility {
		opts = append(opts, dfs.WithUtilityMode())
	}
	if s.MaxEvaluations > 0 {
		opts = append(opts, dfs.WithMaxEvaluations(s.MaxEvaluations))
	}
	if s.EvalStore != "" {
		opts = append(opts, dfs.WithEvalStore(s.EvalStore))
	}

	kind, err := parseModel(s.Model)
	if err != nil {
		return err
	}
	ctx, stopObs, err := obs.Setup(context.Background(), tracePath, debugAddr)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopObs(); err == nil {
			err = serr
		}
	}()
	sel, err := dfs.SelectContext(ctx, d, kind, cs, opts...)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(output{
		Satisfied:    sel.Satisfied,
		Strategy:     sel.Strategy,
		Features:     sel.Features,
		FeatureNames: sel.FeatureNames,
		Validation:   sel.Validation,
		Test:         sel.Test,
		Cost:         sel.Cost,
		BestDistance: sel.BestDistance,
	})
}

func loadDataset(s spec) (*dfs.Dataset, error) {
	if s.Dataset == "" {
		return nil, fmt.Errorf("spec needs a dataset")
	}
	if strings.HasSuffix(s.Dataset, ".csv") {
		f, err := os.Open(s.Dataset)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		tab, err := dfs.LoadCSV(f, s.Dataset)
		if err != nil {
			return nil, err
		}
		return dfs.Preprocess(tab)
	}
	return dfs.GenerateBuiltin(s.Dataset, s.DataSeed)
}

func parseModel(name string) (dfs.ModelKind, error) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "", "LR":
		return dfs.LR, nil
	case "NB":
		return dfs.NB, nil
	case "DT":
		return dfs.DT, nil
	case "SVM":
		return dfs.SVM, nil
	default:
		return "", fmt.Errorf("unknown model %q (LR, NB, DT, SVM)", name)
	}
}
