package model

import (
	"fmt"
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
)

// LinearSVM is an l2-regularized linear support vector machine trained by
// deterministic full-batch subgradient descent on the hinge loss. It is used
// by the feature-set transferability experiment (Table 7).
type LinearSVM struct {
	// C is the inverse regularization strength.
	C float64

	w        []float64
	b        float64
	fitted   bool
	isConst  bool
	constant int
}

// NewLinearSVM returns an untrained linear SVM.
func NewLinearSVM(c float64) *LinearSVM {
	return &LinearSVM{C: c}
}

// svmEpochs is the number of subgradient steps.
const svmEpochs = 150

// Name implements Classifier.
func (m *LinearSVM) Name() string { return string(KindSVM) }

// Clone implements Classifier.
func (m *LinearSVM) Clone() Classifier { return &LinearSVM{C: m.C} }

// Fit implements Classifier.
func (m *LinearSVM) Fit(d *dataset.Dataset) error {
	n, p := d.Rows(), d.Features()
	if n == 0 {
		return fmt.Errorf("model: SVM fit on empty dataset")
	}
	m.isConst = false
	zero, one := d.ClassCounts()
	if zero == 0 || one == 0 {
		m.isConst, m.constant, m.fitted = true, majorityLabel(d.Y), true
		m.w = make([]float64, p)
		return nil
	}
	m.w = make([]float64, p)
	m.b = 0
	lambda := 1 / (m.C * float64(n))
	grad := make([]float64, p)
	for epoch := 0; epoch < svmEpochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			row := d.X.Row(i)
			y := 2*float64(d.Y[i]) - 1
			margin := y * m.margin(row)
			if margin < 1 {
				for j, v := range row {
					grad[j] -= y * v
				}
				gb -= y
			}
		}
		inv := 1 / float64(n)
		// Decaying step size keeps the subgradient method stable; the l2
		// term uses a proximal step so small C cannot diverge.
		lr := 1.0 / (1 + 0.05*float64(epoch))
		shrink := 1 / (1 + lr*lambda)
		for j := range m.w {
			m.w[j] = (m.w[j] - lr*grad[j]*inv) * shrink
		}
		m.b -= lr * gb * inv
	}
	m.fitted = true
	return nil
}

func (m *LinearSVM) margin(x []float64) float64 {
	s := m.b
	for j, v := range x {
		s += m.w[j] * v
	}
	return s
}

// Predict implements Classifier.
func (m *LinearSVM) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictProba implements Classifier: a logistic squashing of the margin
// (a fixed-slope Platt calibration).
func (m *LinearSVM) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0.5
	}
	if m.isConst {
		return float64(m.constant)
	}
	return 1 / (1 + math.Exp(-2*m.margin(x)))
}

// FeatureImportances implements Importancer: the absolute coefficients.
func (m *LinearSVM) FeatureImportances() []float64 {
	out := make([]float64, len(m.w))
	for j, v := range m.w {
		out[j] = math.Abs(v)
	}
	return out
}
