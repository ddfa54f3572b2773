package model

import (
	"fmt"
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Forest is a random forest of CART trees: bootstrap sampling per tree and
// random feature subsampling (√p) per split. With Balanced set, samples are
// weighted inversely to their class frequency, matching the paper's choice
// of "a random forest classifier with default parameters and class
// balancing" for the DFS optimizer (§6.2).
type Forest struct {
	// Trees is the ensemble size; 0 means 100.
	Trees int
	// MaxDepth limits each tree; 0 means 10.
	MaxDepth int
	// Balanced enables inverse-class-frequency sample weights.
	Balanced bool
	// Seed drives bootstrap and feature subsampling.
	Seed uint64

	members []*Tree
	fitted  bool
}

// NewForest returns an untrained random forest.
func NewForest(trees int, seed uint64) *Forest {
	return &Forest{Trees: trees, Seed: seed, Balanced: true}
}

// Name implements Classifier.
func (m *Forest) Name() string { return "RF" }

// Clone implements Classifier.
func (m *Forest) Clone() Classifier {
	return &Forest{Trees: m.Trees, MaxDepth: m.MaxDepth, Balanced: m.Balanced, Seed: m.Seed}
}

// Fit implements Classifier.
func (m *Forest) Fit(d *dataset.Dataset) error {
	n, p := d.Rows(), d.Features()
	if n == 0 {
		return fmt.Errorf("model: RF fit on empty dataset")
	}
	trees := m.Trees
	if trees <= 0 {
		trees = 100
	}
	depth := m.MaxDepth
	if depth <= 0 {
		depth = 10
	}
	mtry := int(math.Sqrt(float64(p)))
	if mtry < 1 {
		mtry = 1
	}

	classWeight := [2]float64{1, 1}
	if m.Balanced {
		zero, one := d.ClassCounts()
		if zero > 0 && one > 0 {
			// sklearn "balanced": n / (2 * count_c).
			classWeight[0] = float64(n) / (2 * float64(zero))
			classWeight[1] = float64(n) / (2 * float64(one))
		}
	}

	rng := xrand.New(m.Seed)
	m.members = make([]*Tree, 0, trees)
	rows := make([]int, n)
	for t := 0; t < trees; t++ {
		treeRng := rng.Split()
		for i := range rows {
			rows[i] = treeRng.Intn(n)
		}
		// The bootstrap sample is a row list with repeats, not a copy.
		tr := &Tree{MaxDepth: depth, MinLeaf: 1, Mtry: mtry, Rng: treeRng}
		if err := tr.fit(d, rows, classWeight); err != nil {
			return fmt.Errorf("model: RF member %d: %w", t, err)
		}
		m.members = append(m.members, tr)
	}
	m.fitted = true
	return nil
}

// Predict implements Classifier.
func (m *Forest) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictProba implements Classifier: the mean of member leaf probabilities.
func (m *Forest) PredictProba(x []float64) float64 {
	if !m.fitted || len(m.members) == 0 {
		return 0.5
	}
	s := 0.0
	for _, tr := range m.members {
		s += tr.PredictProba(x)
	}
	return s / float64(len(m.members))
}

// FeatureImportances implements Importancer: the mean of member importances.
func (m *Forest) FeatureImportances() []float64 {
	if len(m.members) == 0 {
		return nil
	}
	out := make([]float64, len(m.members[0].importances))
	for _, tr := range m.members {
		for j, v := range tr.importances {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(m.members))
	}
	return out
}
