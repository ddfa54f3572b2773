// Package optimizer implements the meta-learning DFS optimizer of §5: a
// multi-label classifier — one balanced random forest per FS strategy — that
// predicts, from a featurized ML scenario, which strategy is most likely to
// satisfy the declared constraints, without trying any strategy on the data.
//
// The scenario featurization ρ(D, φ, C) follows §5.2: dataset shape,
// a one-hot of the classification model, the raw constraint vector, and the
// "hardness" block — the difference between each constraint threshold and a
// subsampling-based landmarking estimate (cross-validation on a small
// class-stratified sample) of the corresponding metric.
package optimizer

import (
	"fmt"
	"math"
	"sort"

	"github.com/declarative-fs/dfs/internal/attack"
	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/metrics"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/privacy"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// LandmarkSample is the class-stratified sample size for landmarking; the
// paper uses 100, the size of its smallest training set (§6.2).
const LandmarkSample = 100

// FeatureDim is the width of the featurization: 2 dataset features, 3 model
// one-hots, 6 constraint slots, and 6 hardness slots.
const FeatureDim = 2 + 3 + constraint.VectorLen + 6

// Featurize computes ρ(D, φ, C) for a scenario. It trains only small
// landmarking models on a ≤100-row sample, so it is cheap by construction
// (the deployment-speed requirement of §5).
func Featurize(scn *core.Scenario, rng *xrand.RNG) ([]float64, error) {
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	train := scn.Split.Train
	cs := scn.Constraints

	x := make([]float64, 0, FeatureDim)
	// ρ_data: log-scaled nominal dimensions.
	x = append(x, math.Log10(float64(train.NominalRows())+1))
	x = append(x, math.Log10(float64(train.NominalFeatures())+1))
	// ρ_model: one-hot over the benchmark's three model families (SVM maps
	// to the LR slot: both are linear margins).
	var lr, nb, dt float64
	switch scn.ModelKind {
	case model.KindNB:
		nb = 1
	case model.KindDT:
		dt = 1
	default:
		lr = 1
	}
	x = append(x, lr, nb, dt)
	// ρ_constraints.
	x = append(x, cs.Vector()...)
	// ρ_hardness: landmarking.
	h, err := landmark(scn, rng)
	if err != nil {
		return nil, err
	}
	x = append(x, h...)
	if len(x) != FeatureDim {
		return nil, fmt.Errorf("optimizer: featurization width %d != %d", len(x), FeatureDim)
	}
	return x, nil
}

// landmark estimates constraint hardness on a small stratified sample via
// cross-validation with the scenario's model family at default
// hyperparameters.
func landmark(scn *core.Scenario, rng *xrand.RNG) ([]float64, error) {
	cs := scn.Constraints
	sample := dataset.StratifiedSample(scn.Split.Train, LandmarkSample, rng.Split())
	folds, err := dataset.KFold(sample, 3, rng.Split())
	if err != nil {
		// Tiny or degenerate samples: fall back to a 50/50 split of rows.
		half := sample.Rows() / 2
		all := make([]int, sample.Rows())
		for i := range all {
			all[i] = i
		}
		folds = [][2][]int{{all[:half], all[half:]}}
	}

	spec := model.Spec{Kind: scn.ModelKind}
	var f1s, eos, safeties, dpF1s []float64
	for _, f := range folds {
		tr, va := sample.Subset(f[0]), sample.Subset(f[1])
		clf, err := model.New(spec)
		if err != nil {
			return nil, err
		}
		if err := clf.Fit(tr); err != nil {
			continue
		}
		pred := model.PredictBatch(clf, va.X)
		f1s = append(f1s, metrics.F1Score(va.Y, pred))
		eos = append(eos, metrics.EqualOpportunity(va.Y, pred, va.Sensitive))
		if cs.HasSafety() && len(safeties) == 0 {
			// One fold suffices for the safety landmark: it is the most
			// expensive probe.
			s, _ := attack.EmpiricalRobustness(clf, va, 4, rng.Split())
			safeties = append(safeties, s)
		}
		if cs.HasPrivacy() && len(dpF1s) == 0 {
			dp, err := privacy.New(spec, cs.PrivacyEps, rng.Split())
			if err != nil {
				return nil, err
			}
			if err := dp.Fit(tr); err == nil {
				dpF1s = append(dpF1s, metrics.F1Score(va.Y, model.PredictBatch(dp, va.X)))
			}
		}
	}
	cvF1, _ := metrics.MeanStd(f1s)
	cvEO, _ := metrics.MeanStd(eos)
	cvSafety := 1.0
	if len(safeties) > 0 {
		cvSafety, _ = metrics.MeanStd(safeties)
	}
	cvDP := cvF1
	if len(dpF1s) > 0 {
		cvDP, _ = metrics.MeanStd(dpF1s)
	}

	// Hardness = landmark estimate − threshold, one slot per benchmark
	// constraint (positive = likely satisfiable).
	frac := cs.MaxFeatureFrac
	if frac == 0 {
		frac = 1
	}
	fullTrain := budget.TrainCost(scn.Split.Train.NominalRows()*3/5,
		float64(scn.Split.Train.NominalFeatures()), budget.KindFactorLR)
	return []float64{
		cvF1 - cs.MinF1,
		frac, // headroom of the feature cap
		cvEO - cs.MinEO,
		cvSafety - cs.MinSafety,
		cvDP - cs.MinF1, // accuracy attainable under the declared ε
		math.Log10(cs.MaxSearchCost+1) - math.Log10(fullTrain+1),
	}, nil
}

// Example is one training observation: a featurized scenario and, per
// strategy, whether it satisfied the scenario.
type Example struct {
	X         []float64
	Satisfied map[string]bool
}

// Optimizer is the trained per-strategy probability model.
type Optimizer struct {
	strategies []string
	forests    map[string]*model.Forest
	constant   map[string]float64 // strategies with single-class training data
}

// Train fits one balanced random forest per strategy (Algorithm 1, training
// phase).
func Train(examples []Example, strategies []string, seed uint64) (*Optimizer, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("optimizer: no training examples")
	}
	if len(strategies) == 0 {
		return nil, fmt.Errorf("optimizer: no strategies")
	}
	dim := len(examples[0].X)
	x := linalg.NewMatrix(len(examples), dim)
	for i, ex := range examples {
		if len(ex.X) != dim {
			return nil, fmt.Errorf("optimizer: example %d width %d != %d", i, len(ex.X), dim)
		}
		copy(x.Row(i), ex.X)
	}
	o := &Optimizer{
		strategies: append([]string(nil), strategies...),
		forests:    make(map[string]*model.Forest),
		constant:   make(map[string]float64),
	}
	rng := xrand.New(seed)
	for _, s := range strategies {
		y := make([]int, len(examples))
		ones := 0
		for i, ex := range examples {
			if ex.Satisfied[s] {
				y[i] = 1
				ones++
			}
		}
		if ones == 0 || ones == len(examples) {
			o.constant[s] = float64(ones) / float64(len(examples))
			if ones == len(examples) {
				o.constant[s] = 1
			}
			continue
		}
		d := &dataset.Dataset{
			Name: "meta-" + s, X: x, Y: y, Sensitive: make([]int, len(examples)),
		}
		f := model.NewForest(60, rng.Uint64())
		f.MaxDepth = 8
		if err := f.Fit(d); err != nil {
			return nil, fmt.Errorf("optimizer: training forest for %s: %w", s, err)
		}
		o.forests[s] = f
	}
	return o, nil
}

// Strategies returns the strategy names the optimizer knows.
func (o *Optimizer) Strategies() []string {
	return append([]string(nil), o.strategies...)
}

// Probabilities returns each strategy's predicted success probability for a
// featurized scenario.
func (o *Optimizer) Probabilities(x []float64) map[string]float64 {
	out := make(map[string]float64, len(o.strategies))
	for _, s := range o.strategies {
		if p, ok := o.constant[s]; ok {
			out[s] = p
			continue
		}
		out[s] = o.forests[s].PredictProba(x)
	}
	return out
}

// Choose returns the strategy with the highest predicted success
// probability (Algorithm 1, deployment phase); ties break on Table 3 order.
func (o *Optimizer) Choose(x []float64) string {
	probs := o.Probabilities(x)
	best, bestP := "", -1.0
	for _, s := range o.strategies {
		if p := probs[s]; p > bestP {
			best, bestP = s, p
		}
	}
	return best
}

// Ranking returns all strategies ordered by predicted success probability,
// best first.
func (o *Optimizer) Ranking(x []float64) []string {
	probs := o.Probabilities(x)
	out := append([]string(nil), o.strategies...)
	sort.SliceStable(out, func(a, b int) bool { return probs[out[a]] > probs[out[b]] })
	return out
}
