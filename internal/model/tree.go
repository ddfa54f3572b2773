package model

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// maxThresholds caps the candidate split thresholds evaluated per feature:
// midpoints between at most maxThresholds+1 quantiles of the node's distinct
// values.
const maxThresholds = 24

// Tree is a CART binary decision tree using weighted Gini impurity, with a
// depth limit as the tuned hyperparameter (§6.1 optimizes max depth in
// [1, 7]). It supports one sample weight per class (used for balanced class
// weights in the random forest) and optional per-split random feature
// subsampling (mtry), which the forest uses.
type Tree struct {
	// MaxDepth limits the tree depth; depth 0 is a single leaf.
	MaxDepth int
	// MinLeaf is the minimum weighted number of samples per leaf.
	MinLeaf float64
	// Mtry, when positive, samples that many candidate features per split
	// using Rng (random forest mode).
	Mtry int
	// Rng drives Mtry sampling; required when Mtry > 0.
	Rng *xrand.RNG

	nodes       []treeNode // pre-order; nodes[0] is the root
	nFeatures   int
	importances []float64
	fitted      bool
}

type treeNode struct {
	feature     int
	threshold   float64
	left, right int     // child indices into Tree.nodes; -1 at a leaf
	proba       float64 // P(y=1) at the node
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
	return &Tree{MaxDepth: m.MaxDepth, MinLeaf: m.MinLeaf, Mtry: m.Mtry, Rng: m.Rng}
}

// Fit implements Classifier with unit sample weights.
func (m *Tree) Fit(d *dataset.Dataset) error {
	return m.FitWeighted(d, [2]float64{1, 1})
}

// FitWeighted trains with one sample weight per class: every row labelled c
// weighs classWeight[c].
func (m *Tree) FitWeighted(d *dataset.Dataset, classWeight [2]float64) error {
	return m.fit(d, nil, classWeight)
}

// splitScratch holds one fit's working memory: the row window each node
// partitions in place, a partition buffer, the node list grown in pre-order,
// and the per-feature buffers of the split search. Fits borrow it from
// scratchPool, so a steady stream of fits allocates only the fitted trees.
type splitScratch struct {
	rows, tmp  []int
	nodes      []treeNode
	feats      []int
	v0, v1     []float64 // a feature's node values of class 0 and 1, sorted
	uniq, cuts []float64
}

var scratchPool = sync.Pool{New: func() any { return new(splitScratch) }}

// fit trains on the given rows of d (nil means every row; repeats count as
// copies, which is how the forest bootstraps without copying its sample).
func (m *Tree) fit(d *dataset.Dataset, rows []int, classWeight [2]float64) error {
	n := d.Rows()
	if rows != nil {
		n = len(rows)
	}
	if n == 0 {
		return fmt.Errorf("model: DT fit on empty dataset")
	}
	if m.Mtry > 0 && m.Rng == nil {
		return fmt.Errorf("model: DT with Mtry > 0 needs an RNG")
	}
	for _, w := range classWeight {
		if !(w >= 0) || math.IsInf(w, 1) {
			return fmt.Errorf("model: DT class weights %v must be finite and non-negative", classWeight)
		}
	}
	s := scratchPool.Get().(*splitScratch)
	defer scratchPool.Put(s)
	s.rows = slices.Grow(s.rows[:0], n)[:n]
	if rows != nil {
		copy(s.rows, rows)
	} else {
		for i := range s.rows {
			s.rows[i] = i
		}
	}
	s.nodes = s.nodes[:0]
	m.nFeatures = d.Features()
	m.importances = make([]float64, m.nFeatures)
	m.build(d, classWeight, s, s.rows, 0)
	m.nodes = slices.Clone(s.nodes)
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

func gini(w0, w1 float64) float64 {
	total := w0 + w1
	if total == 0 {
		return 0
	}
	p0, p1 := w0/total, w1/total
	return 1 - p0*p0 - p1*p1
}

// build grows the subtree over rows, a window of s.rows that it partitions
// in place, appends its nodes to s.nodes in pre-order and returns the index
// of its root.
//
// Every weight is the constant of its row's class, so a class's weighted
// count is the same sum of equal terms in any row order: that is why the
// split search may sum over sorted values and the partition may reorder rows
// without changing a bit of the fitted tree.
func (m *Tree) build(d *dataset.Dataset, cw [2]float64, s *splitScratch, rows []int, depth int) int {
	var w0, w1 float64
	for _, i := range rows {
		if d.Y[i] == 1 {
			w1 += cw[1]
		} else {
			w0 += cw[0]
		}
	}
	total := w0 + w1
	idx := len(s.nodes)
	s.nodes = append(s.nodes, treeNode{leaf: true, proba: 0.5, left: -1, right: -1})
	if total > 0 {
		s.nodes[idx].proba = w1 / total
	}
	if depth >= m.MaxDepth || w0 == 0 || w1 == 0 || total < 2*m.MinLeaf {
		return idx
	}
	feat, thr, gain := m.bestSplit(d, cw, s, rows, w0, w1)
	if feat < 0 || gain <= 1e-12 {
		return idx
	}
	k := partition(d, rows, feat, thr, s)
	if k == 0 || k == len(rows) {
		return idx
	}
	m.importances[feat] += total * gain
	nd := &s.nodes[idx]
	nd.leaf, nd.feature, nd.threshold = false, feat, thr
	// The recursion appends to s.nodes, so index it afresh after each call.
	left := m.build(d, cw, s, rows[:k], depth+1)
	right := m.build(d, cw, s, rows[k:], depth+1)
	s.nodes[idx].left, s.nodes[idx].right = left, right
	return idx
}

// partition stably moves the rows whose feat value is at most thr to the
// front and returns their count.
func partition(d *dataset.Dataset, rows []int, feat int, thr float64, s *splitScratch) int {
	right := s.tmp[:0]
	k := 0
	for _, i := range rows {
		if d.X.At(i, feat) <= thr {
			rows[k] = i
			k++
		} else {
			right = append(right, i)
		}
	}
	copy(rows[k:], right)
	s.tmp = right
	return k
}

// bestSplit scans candidate features and quantile thresholds for the split
// with the largest weighted Gini decrease. Per feature it sorts the node's
// values of each class once, then sweeps the ascending cuts, advancing one
// pointer per class, so a cut's left-side weights come from the sweep so far
// rather than a pass over every row.
func (m *Tree) bestSplit(d *dataset.Dataset, cw [2]float64, s *splitScratch, rows []int, w0, w1 float64) (feat int, thr, gain float64) {
	parentGini := gini(w0, w1)
	total := w0 + w1
	feat = -1
	for _, j := range m.candidates(s) {
		v0, v1 := s.v0[:0], s.v1[:0]
		for _, i := range rows {
			if d.Y[i] == 1 {
				v1 = append(v1, d.X.At(i, j))
			} else {
				v0 = append(v0, d.X.At(i, j))
			}
		}
		slices.Sort(v0)
		slices.Sort(v1)
		s.v0, s.v1 = v0, v1
		s.uniq = mergeDistinct(s.uniq[:0], v0, v1)
		s.cuts = quantileCuts(s.cuts[:0], s.uniq)
		var l0, l1 float64
		p0, p1 := 0, 0
		for _, t := range s.cuts {
			for ; p0 < len(v0) && v0[p0] <= t; p0++ {
				l0 += cw[0]
			}
			for ; p1 < len(v1) && v1[p1] <= t; p1++ {
				l1 += cw[1]
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

// candidates returns the features one split considers, ascending: all of
// them, or with Mtry the first Mtry of a Fisher-Yates permutation, drawn
// from Rng exactly as Rng.Sample(nFeatures, Mtry) would.
func (m *Tree) candidates(s *splitScratch) []int {
	p := slices.Grow(s.feats[:0], m.nFeatures)[:m.nFeatures]
	s.feats = p
	for j := range p {
		p[j] = j
	}
	if m.Mtry > 0 && m.Mtry < m.nFeatures {
		m.Rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		p = p[:m.Mtry]
		slices.Sort(p)
	}
	return p
}

// mergeDistinct appends the distinct values of the sorted a and b to dst,
// ascending.
func mergeDistinct(dst, a, b []float64) []float64 {
	i, k := 0, 0
	for i < len(a) || k < len(b) {
		var v float64
		if k == len(b) || (i < len(a) && a[i] <= b[k]) {
			v = a[i]
			i++
		} else {
			v = b[k]
			k++
		}
		if len(dst) == 0 || v != dst[len(dst)-1] {
			dst = append(dst, v)
		}
	}
	return dst
}

// quantileCuts appends to dst the midpoints between up to maxThresholds+1
// quantiles of uniq, the ascending distinct values; the cuts ascend.
func quantileCuts(dst, uniq []float64) []float64 {
	if len(uniq) < 2 {
		return dst
	}
	if len(uniq)-1 <= maxThresholds {
		for i := 0; i+1 < len(uniq); i++ {
			dst = append(dst, (uniq[i]+uniq[i+1])/2)
		}
		return dst
	}
	for k := 1; k <= maxThresholds; k++ {
		idx := len(uniq) * k / (maxThresholds + 1)
		if idx >= len(uniq)-1 {
			idx = len(uniq) - 2
		}
		t := (uniq[idx] + uniq[idx+1]) / 2
		if len(dst) == 0 || t != dst[len(dst)-1] {
			dst = append(dst, t)
		}
	}
	return dst
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
	nd := &m.nodes[0]
	for !nd.leaf {
		if x[nd.feature] <= nd.threshold {
			nd = &m.nodes[nd.left]
		} else {
			nd = &m.nodes[nd.right]
		}
	}
	return nd.proba
}

// FeatureImportances implements Importancer: normalized total Gini decrease
// per feature.
func (m *Tree) FeatureImportances() []float64 {
	return append([]float64(nil), m.importances...)
}

// Depth returns the fitted tree depth (0 for a stump/leaf).
func (m *Tree) Depth() int {
	var walk func(k int) int
	walk = func(k int) int {
		if m.nodes[k].leaf {
			return 0
		}
		return 1 + max(walk(m.nodes[k].left), walk(m.nodes[k].right))
	}
	if len(m.nodes) == 0 {
		return 0
	}
	return walk(0)
}

// LeafCount returns the number of leaves of the fitted tree.
func (m *Tree) LeafCount() int {
	leaves := 0
	for k := range m.nodes {
		if m.nodes[k].leaf {
			leaves++
		}
	}
	return leaves
}
