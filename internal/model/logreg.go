package model

import (
	"fmt"
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
)

// LogReg is l2-regularized binary logistic regression trained by full-batch
// gradient descent. Training is deterministic: no random initialization is
// needed because the regularized logistic loss is strictly convex, and the
// gradient is summed in a fixed order (see Fit).
type LogReg struct {
	// C is the inverse regularization strength (sklearn convention).
	C float64

	w        []float64 // weights, one per feature
	b        float64   // intercept
	fitted   bool
	constant int // fallback label when training data has one class
	isConst  bool
}

// NewLogReg returns an untrained logistic regression with inverse
// regularization strength c.
func NewLogReg(c float64) *LogReg {
	return &LogReg{C: c}
}

const (
	// logRegEpochs is the number of gradient steps.
	logRegEpochs = 150
	// logRegLearningRate is the constant step size; features are expected
	// in [0, 1], so it is stable.
	logRegLearningRate = 0.7
)

// Name implements Classifier.
func (m *LogReg) Name() string { return string(KindLR) }

// Clone implements Classifier.
func (m *LogReg) Clone() Classifier {
	return &LogReg{C: m.C}
}

// Fit implements Classifier.
func (m *LogReg) Fit(d *dataset.Dataset) error {
	n, p := d.Rows(), d.Features()
	if n == 0 {
		return fmt.Errorf("model: LR fit on empty dataset")
	}
	m.isConst = false
	zero, one := d.ClassCounts()
	if zero == 0 || one == 0 {
		m.isConst, m.constant = true, majorityLabel(d.Y)
		m.w, m.b, m.fitted = make([]float64, p), 0, true
		return nil
	}
	m.w = make([]float64, p)
	m.b = 0
	lambda := 0.0
	if m.C > 0 {
		lambda = 1 / (m.C * float64(n))
	}
	// The per-epoch gradient is summed per chunk in row order, and the chunk
	// sums are added in chunk order (slot p holds the intercept gradient).
	// That order fixes every bit of the coefficients, and with them every
	// stored LR evaluation, so the chunk geometry must not change
	// (TestLogRegGoldenDigest).
	nc := numChunks(n)
	stride := p + 1
	part := make([]float64, stride)
	grad := make([]float64, stride)
	w := m.w
	for epoch := 0; epoch < logRegEpochs; epoch++ {
		b := m.b
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(n, c)
			// Fused row pass: score and gradient contribution in one
			// traversal of the cache-hot row. The first row of the chunk
			// assigns instead of accumulating, which folds the per-chunk
			// zeroing into the pass itself.
			for i := lo; i < hi; i++ {
				row := d.X.Row(i)
				s := b
				for j, v := range row {
					s += w[j] * v
				}
				err := sigmoid(s) - float64(d.Y[i])
				if i == lo {
					for j, v := range row {
						part[j] = err * v
					}
					part[p] = err
					continue
				}
				for j, v := range row {
					part[j] += err * v
				}
				part[p] += err
			}
			if c == 0 {
				copy(grad, part)
				continue
			}
			for j, v := range part {
				grad[j] += v
			}
		}
		inv := 1 / float64(n)
		lr := logRegLearningRate
		// Proximal step for the l2 term: unconditionally stable even for
		// very small C (large lambda).
		shrink := 1 / (1 + lr*lambda)
		for j := range w {
			w[j] = (w[j] - lr*grad[j]*inv) * shrink
		}
		m.b -= lr * grad[p] * inv
	}
	m.fitted = true
	return nil
}

func (m *LogReg) rawScore(x []float64) float64 {
	s := m.b
	for j, v := range x {
		s += m.w[j] * v
	}
	return s
}

// Predict implements Classifier.
func (m *LogReg) Predict(x []float64) int {
	if m.PredictProba(x) >= 0.5 {
		return 1
	}
	return 0
}

// PredictProba implements Classifier.
func (m *LogReg) PredictProba(x []float64) float64 {
	if !m.fitted {
		return 0.5
	}
	if m.isConst {
		return float64(m.constant)
	}
	return sigmoid(m.rawScore(x))
}

// FeatureImportances implements Importancer: the absolute coefficients.
func (m *LogReg) FeatureImportances() []float64 {
	out := make([]float64, len(m.w))
	for j, v := range m.w {
		out[j] = math.Abs(v)
	}
	return out
}

// Coefficients returns the fitted weight vector and intercept.
func (m *LogReg) Coefficients() (w []float64, b float64) {
	return append([]float64(nil), m.w...), m.b
}

// SetCoefficients overwrites the fitted parameters; the privacy package uses
// this to install noise-perturbed weights.
func (m *LogReg) SetCoefficients(w []float64, b float64) {
	m.w = append([]float64(nil), w...)
	m.b = b
	m.fitted = true
	m.isConst = false
}

const (
	// minChunkLen is the fewest rows a gradient chunk holds.
	minChunkLen = 64
	// maxChunks caps the number of gradient chunks regardless of row count.
	maxChunks = 32
)

// numChunks returns the number of gradient chunks of an n-row training set.
func numChunks(n int) int {
	if n <= 0 {
		return 0
	}
	return min((n+minChunkLen-1)/minChunkLen, maxChunks)
}

// chunkBounds returns the half-open row range [lo, hi) of chunk c of an
// n-row training set. Chunks partition [0, n) contiguously and every chunk
// is non-empty for n > 0.
func chunkBounds(n, c int) (lo, hi int) {
	nc := numChunks(n)
	return c * n / nc, (c + 1) * n / nc
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
