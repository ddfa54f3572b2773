// Package privacy implements the ε-differentially private model variants the
// study plugs in when a Min Privacy constraint is declared (§3): private
// logistic regression via output perturbation (Chaudhuri, Monteleoni &
// Sarwate, JMLR 2011), private Gaussian naive Bayes via Laplace-perturbed
// sufficient statistics (Vaidya et al., 2013), and a private decision tree in
// the spirit of Fletcher & Islam (2017): a data-independent random tree
// structure whose leaf class counts receive Laplace noise.
//
// As in the paper (§4.3), privacy is satisfied by construction — the DP
// model variant is parameterized with the user's ε — so the privacy
// constraint never enters the distance objective. What feature selection
// changes is the *utility* under a fixed ε: all three mechanisms inject
// noise that grows with the number of features, which is exactly why
// privacy constraints favour small feature sets in the benchmark.
package privacy

import (
	"fmt"
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// New returns the ε-differentially private variant of the model family in
// spec. The returned classifier re-draws fresh noise at every Fit, using a
// child stream of rng, so repeated trainings are valid independent releases.
func New(spec model.Spec, epsilon float64, rng *xrand.RNG) (model.Classifier, error) {
	if epsilon <= 0 {
		return nil, fmt.Errorf("privacy: epsilon must be positive, got %v", epsilon)
	}
	if rng == nil {
		return nil, fmt.Errorf("privacy: nil RNG")
	}
	switch spec.Kind {
	case model.KindLR, model.KindSVM:
		c := spec.C
		if c == 0 {
			c = 1
		}
		return &DPLogReg{C: c, Epsilon: epsilon, rng: rng.Split()}, nil
	case model.KindNB:
		vs := spec.VarSmoothing
		if vs == 0 {
			vs = 1e-9
		}
		return &DPNaiveBayes{VarSmoothing: vs, Epsilon: epsilon, rng: rng.Split()}, nil
	case model.KindDT:
		depth := spec.MaxDepth
		if depth == 0 {
			depth = 4
		}
		return &DPTree{MaxDepth: depth, Epsilon: epsilon, rng: rng.Split()}, nil
	default:
		return nil, fmt.Errorf("privacy: no DP variant for model kind %q", spec.Kind)
	}
}

// DPLogReg is ε-differentially private logistic regression via output
// perturbation: the l2-regularized minimizer has global sensitivity
// 2/(n·λ) = 2·C, and the released weights add noise with density
// ∝ exp(−ε‖b‖/(2C)) — a Gamma(d, 2C/ε)-distributed magnitude in a uniformly
// random direction.
type DPLogReg struct {
	// C is the inverse regularization strength of the underlying LR.
	C float64
	// Epsilon is the privacy budget.
	Epsilon float64

	base *model.LogReg
	rng  *xrand.RNG
}

// Name implements model.Classifier.
func (m *DPLogReg) Name() string { return "DP-LR" }

// Clone implements model.Classifier.
func (m *DPLogReg) Clone() model.Classifier {
	return &DPLogReg{C: m.C, Epsilon: m.Epsilon, rng: m.rng.Split()}
}

// Fit implements model.Classifier: trains the base model, then perturbs the
// released coefficient vector.
func (m *DPLogReg) Fit(d *dataset.Dataset) error {
	m.base = model.NewLogReg(m.C)
	if err := m.base.Fit(d); err != nil {
		return err
	}
	w, b := m.base.Coefficients()
	dim := len(w) + 1 // weights plus intercept
	scale := 2 * m.C / m.Epsilon
	noise := gammaDirectionalNoise(m.rng, dim, scale)
	for j := range w {
		w[j] += noise[j]
	}
	b += noise[dim-1]
	m.base.SetCoefficients(w, b)
	return nil
}

// Predict implements model.Classifier.
func (m *DPLogReg) Predict(x []float64) int {
	if m.base == nil {
		return 0
	}
	return m.base.Predict(x)
}

// PredictProba implements model.Classifier.
func (m *DPLogReg) PredictProba(x []float64) float64 {
	if m.base == nil {
		return 0.5
	}
	return m.base.PredictProba(x)
}

// gammaDirectionalNoise samples a vector with ‖b‖ ~ Gamma(dim, scale) in a
// uniformly random direction, the noise shape of Chaudhuri-style output
// perturbation.
func gammaDirectionalNoise(rng *xrand.RNG, dim int, scale float64) []float64 {
	// Gamma(dim, scale) with integer shape = sum of dim exponentials.
	mag := 0.0
	for i := 0; i < dim; i++ {
		mag += rng.Exponential(1 / scale)
	}
	dir := make([]float64, dim)
	for j := range dir {
		dir[j] = rng.Norm()
	}
	n := linalg.Norm2(dir)
	if n == 0 {
		dir[0], n = 1, 1
	}
	for j := range dir {
		dir[j] = dir[j] / n * mag
	}
	return dir
}

// DPNaiveBayes is ε-differentially private Gaussian naive Bayes following
// Vaidya et al.: Laplace noise on the class counts and on every per-class
// mean and variance. The budget is split evenly across the 1 + 4·d released
// statistics; features live in [0, 1], so a count has sensitivity 1 and a
// mean/second-moment over n_c records has sensitivity 1/n_c.
type DPNaiveBayes struct {
	// VarSmoothing mirrors the non-private hyperparameter.
	VarSmoothing float64
	// Epsilon is the privacy budget.
	Epsilon float64

	base *model.GaussianNB
	rng  *xrand.RNG
}

// Name implements model.Classifier.
func (m *DPNaiveBayes) Name() string { return "DP-NB" }

// Clone implements model.Classifier.
func (m *DPNaiveBayes) Clone() model.Classifier {
	return &DPNaiveBayes{VarSmoothing: m.VarSmoothing, Epsilon: m.Epsilon, rng: m.rng.Split()}
}

// Fit implements model.Classifier.
func (m *DPNaiveBayes) Fit(d *dataset.Dataset) error {
	m.base = model.NewGaussianNB(m.VarSmoothing)
	if err := m.base.Fit(d); err != nil {
		return err
	}
	mean, variance, _ := m.base.Stats()
	if mean[0] == nil {
		// Single-class fallback: nothing further to release.
		return nil
	}
	p := len(mean[0])
	zero, one := d.ClassCounts()
	counts := [2]float64{float64(zero), float64(one)}

	// Budget split: 1 release for the count histogram, 2·p means, 2·p
	// variances.
	parts := float64(1 + 4*p)
	epsPart := m.Epsilon / parts

	noisyCounts := [2]float64{}
	for c := 0; c < 2; c++ {
		noisyCounts[c] = counts[c] + m.rng.Laplace(1/epsPart)
		if noisyCounts[c] < 1 {
			noisyCounts[c] = 1
		}
	}
	total := noisyCounts[0] + noisyCounts[1]
	var logPrior [2]float64
	for c := 0; c < 2; c++ {
		logPrior[c] = math.Log(noisyCounts[c] / total)
	}
	var nMean, nVar [2][]float64
	for c := 0; c < 2; c++ {
		nMean[c] = make([]float64, p)
		nVar[c] = make([]float64, p)
		sens := 1 / math.Max(counts[c], 1)
		for j := 0; j < p; j++ {
			nMean[c][j] = clamp(mean[c][j]+m.rng.Laplace(sens/epsPart), 0, 1)
			v := variance[c][j] + m.rng.Laplace(sens/epsPart)
			if v < 1e-9 {
				v = 1e-9
			}
			nVar[c][j] = v
		}
	}
	m.base.SetStats(nMean, nVar, logPrior)
	return nil
}

// Predict implements model.Classifier.
func (m *DPNaiveBayes) Predict(x []float64) int {
	if m.base == nil {
		return 0
	}
	return m.base.Predict(x)
}

// PredictProba implements model.Classifier.
func (m *DPNaiveBayes) PredictProba(x []float64) float64 {
	if m.base == nil {
		return 0.5
	}
	return m.base.PredictProba(x)
}

// DPTree is an ε-differentially private decision forest after Fletcher &
// Islam: an ensemble of completely random trees (random feature, random
// threshold per node — the structure is chosen without looking at the data,
// which costs no privacy), each trained on a *disjoint* partition of the
// data so parallel composition preserves the full ε per tree, with
// Laplace(2/ε) noise on each leaf's class counts.
type DPTree struct {
	// MaxDepth limits each random tree's depth.
	MaxDepth int
	// Epsilon is the privacy budget.
	Epsilon float64

	roots []*dpNode
	rng   *xrand.RNG
}

// dpTrees is the DP forest's ensemble size.
const dpTrees = 7

type dpNode struct {
	feature     int
	threshold   float64
	left, right *dpNode
	proba       float64
	leaf        bool
}

// Name implements model.Classifier.
func (m *DPTree) Name() string { return "DP-DT" }

// Clone implements model.Classifier.
func (m *DPTree) Clone() model.Classifier {
	return &DPTree{MaxDepth: m.MaxDepth, Epsilon: m.Epsilon, rng: m.rng.Split()}
}

// Fit implements model.Classifier.
func (m *DPTree) Fit(d *dataset.Dataset) error {
	if d.Rows() == 0 {
		return fmt.Errorf("privacy: DP-DT fit on empty dataset")
	}
	trees := dpTrees
	if trees > d.Rows() {
		trees = 1
	}
	perm := m.rng.Perm(d.Rows())
	m.roots = m.roots[:0]
	for t := 0; t < trees; t++ {
		// Disjoint partition: tree t sees rows t, t+trees, t+2·trees, …
		var rows []int
		for k := t; k < len(perm); k += trees {
			rows = append(rows, perm[k])
		}
		m.roots = append(m.roots, m.buildRandom(d, rows, 0))
	}
	return nil
}

func (m *DPTree) buildRandom(d *dataset.Dataset, rows []int, depth int) *dpNode {
	if depth >= m.MaxDepth || d.Features() == 0 {
		return m.makeLeaf(d, rows)
	}
	feat := m.rng.Intn(d.Features())
	thr := m.rng.Float64() // features live in [0, 1]
	var left, right []int
	for _, i := range rows {
		if d.X.At(i, feat) <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return &dpNode{
		feature:   feat,
		threshold: thr,
		left:      m.buildRandom(d, left, depth+1),
		right:     m.buildRandom(d, right, depth+1),
	}
}

func (m *DPTree) makeLeaf(d *dataset.Dataset, rows []int) *dpNode {
	var c0, c1 float64
	for _, i := range rows {
		if d.Y[i] == 1 {
			c1++
		} else {
			c0++
		}
	}
	// Each of the two counts gets half the budget; count sensitivity is 1.
	c0 += m.rng.Laplace(2 / m.Epsilon)
	c1 += m.rng.Laplace(2 / m.Epsilon)
	if c0 < 0 {
		c0 = 0
	}
	if c1 < 0 {
		c1 = 0
	}
	p := 0.5
	if c0+c1 > 0 {
		p = c1 / (c0 + c1)
	}
	return &dpNode{leaf: true, proba: p}
}

// Predict implements model.Classifier.
func (m *DPTree) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictProba implements model.Classifier: the ensemble mean of leaf
// probabilities.
func (m *DPTree) PredictProba(x []float64) float64 {
	if len(m.roots) == 0 {
		return 0.5
	}
	sum := 0.0
	for _, root := range m.roots {
		n := root
		for !n.leaf {
			if x[n.feature] <= n.threshold {
				n = n.left
			} else {
				n = n.right
			}
		}
		sum += n.proba
	}
	return sum / float64(len(m.roots))
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
