package model

import (
	"fmt"
	"math"
	"sort"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Tree is a CART binary decision tree using weighted Gini impurity, with a
// depth limit as the tuned hyperparameter (§6.1 optimizes max depth in
// [1, 7]). It supports per-sample weights (used for balanced class weights in
// the random forest) and optional per-split random feature subsampling
// (mtry), which the forest uses.
type Tree struct {
	// MaxDepth limits the tree depth; depth 0 is a single leaf.
	MaxDepth int
	// MinLeaf is the minimum weighted number of samples per leaf.
	MinLeaf float64
	// MaxThresholds caps the number of candidate split thresholds evaluated
	// per feature (quantile cuts); 0 means 24.
	MaxThresholds int
	// Mtry, when positive, samples that many candidate features per split
	// using Rng (random forest mode).
	Mtry int
	// Rng drives Mtry sampling; required when Mtry > 0.
	Rng *xrand.RNG

	root        *treeNode
	nFeatures   int
	importances []float64
	fitted      bool
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right *treeNode
	proba       float64 // P(y=1) at a leaf
	leaf        bool
}

// NewTree returns an untrained CART tree with the given depth limit.
func NewTree(maxDepth int) *Tree {
	return &Tree{MaxDepth: maxDepth, MinLeaf: 2}
}

// Name implements Classifier.
func (m *Tree) Name() string { return string(KindDT) }

// Clone implements Classifier.
func (m *Tree) Clone() Classifier {
	return &Tree{MaxDepth: m.MaxDepth, MinLeaf: m.MinLeaf, MaxThresholds: m.MaxThresholds,
		Mtry: m.Mtry, Rng: m.Rng}
}

// Fit implements Classifier with unit sample weights.
func (m *Tree) Fit(d *dataset.Dataset) error {
	return m.FitWeighted(d, nil)
}

// FitWeighted trains with per-sample weights; nil means unit weights.
func (m *Tree) FitWeighted(d *dataset.Dataset, weights []float64) error {
	n := d.Rows()
	if n == 0 {
		return fmt.Errorf("model: DT fit on empty dataset")
	}
	if weights != nil && len(weights) != n {
		return fmt.Errorf("model: DT weight length %d != rows %d", len(weights), n)
	}
	if m.Mtry > 0 && m.Rng == nil {
		return fmt.Errorf("model: DT with Mtry > 0 needs an RNG")
	}
	if weights == nil {
		weights = make([]float64, n)
		for i := range weights {
			weights[i] = 1
		}
	}
	m.nFeatures = d.Features()
	m.importances = make([]float64, m.nFeatures)
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	m.root = m.build(d, weights, rows, 0)
	// Normalize importances to sum to 1 (when any split happened).
	total := 0.0
	for _, v := range m.importances {
		total += v
	}
	if total > 0 {
		for j := range m.importances {
			m.importances[j] /= total
		}
	}
	m.fitted = true
	return nil
}

func weightedCounts(d *dataset.Dataset, w []float64, rows []int) (w0, w1 float64) {
	for _, i := range rows {
		if d.Y[i] == 1 {
			w1 += w[i]
		} else {
			w0 += w[i]
		}
	}
	return w0, w1
}

func gini(w0, w1 float64) float64 {
	total := w0 + w1
	if total == 0 {
		return 0
	}
	p0, p1 := w0/total, w1/total
	return 1 - p0*p0 - p1*p1
}

func (m *Tree) build(d *dataset.Dataset, w []float64, rows []int, depth int) *treeNode {
	w0, w1 := weightedCounts(d, w, rows)
	total := w0 + w1
	node := &treeNode{leaf: true, proba: 0.5}
	if total > 0 {
		node.proba = w1 / total
	}
	if depth >= m.MaxDepth || w0 == 0 || w1 == 0 || total < 2*m.MinLeaf {
		return node
	}
	feat, thr, gain := m.bestSplit(d, w, rows, w0, w1)
	if feat < 0 || gain <= 1e-12 {
		return node
	}
	var left, right []int
	for _, i := range rows {
		if d.X.At(i, feat) <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return node
	}
	m.importances[feat] += total * gain
	node.leaf = false
	node.feature = feat
	node.threshold = thr
	node.left = m.build(d, w, left, depth+1)
	node.right = m.build(d, w, right, depth+1)
	return node
}

// bestSplit scans candidate features and quantile thresholds for the split
// with the largest weighted Gini decrease.
func (m *Tree) bestSplit(d *dataset.Dataset, w []float64, rows []int, w0, w1 float64) (feat int, thr, gain float64) {
	parentGini := gini(w0, w1)
	total := w0 + w1
	feat = -1
	maxThr := m.MaxThresholds
	if maxThr <= 0 {
		maxThr = 24
	}

	candidates := make([]int, 0, m.nFeatures)
	if m.Mtry > 0 && m.Mtry < m.nFeatures {
		candidates = append(candidates, m.Rng.Sample(m.nFeatures, m.Mtry)...)
		sort.Ints(candidates)
	} else {
		for j := 0; j < m.nFeatures; j++ {
			candidates = append(candidates, j)
		}
	}

	vals := make([]float64, 0, len(rows))
	for _, j := range candidates {
		vals = vals[:0]
		for _, i := range rows {
			vals = append(vals, d.X.At(i, j))
		}
		cuts := thresholdCandidates(vals, maxThr)
		for _, t := range cuts {
			var l0, l1 float64
			for k, i := range rows {
				if vals[k] <= t {
					if d.Y[i] == 1 {
						l1 += w[i]
					} else {
						l0 += w[i]
					}
				}
			}
			r0, r1 := w0-l0, w1-l1
			lTot, rTot := l0+l1, r0+r1
			if lTot < m.MinLeaf || rTot < m.MinLeaf {
				continue
			}
			g := parentGini - (lTot*gini(l0, l1)+rTot*gini(r0, r1))/total
			if g > gain {
				feat, thr, gain = j, t, g
			}
		}
	}
	return feat, thr, gain
}

// thresholdCandidates returns midpoints between up to maxThr+1 quantiles of
// the distinct values.
func thresholdCandidates(vals []float64, maxThr int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	if len(uniq)-1 <= maxThr {
		out := make([]float64, 0, len(uniq)-1)
		for i := 0; i+1 < len(uniq); i++ {
			out = append(out, (uniq[i]+uniq[i+1])/2)
		}
		return out
	}
	out := make([]float64, 0, maxThr)
	for k := 1; k <= maxThr; k++ {
		idx := len(uniq) * k / (maxThr + 1)
		if idx >= len(uniq)-1 {
			idx = len(uniq) - 2
		}
		t := (uniq[idx] + uniq[idx+1]) / 2
		if len(out) == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Predict implements Classifier.
func (m *Tree) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictProba implements Classifier.
func (m *Tree) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0.5
	}
	n := m.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.proba
}

// FeatureImportances implements Importancer: normalized total Gini decrease
// per feature.
func (m *Tree) FeatureImportances() []float64 {
	return append([]float64(nil), m.importances...)
}

// Depth returns the fitted tree depth (0 for a stump/leaf).
func (m *Tree) Depth() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil || n.leaf {
			return 0
		}
		l, r := walk(n.left), walk(n.right)
		return 1 + int(math.Max(float64(l), float64(r)))
	}
	return walk(m.root)
}

// LeafCount returns the number of leaves of the fitted tree.
func (m *Tree) LeafCount() int {
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		if n.leaf {
			return 1
		}
		return walk(n.left) + walk(n.right)
	}
	return walk(m.root)
}
