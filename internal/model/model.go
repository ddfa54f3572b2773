// Package model implements the classifiers of the study from scratch:
// logistic regression, Gaussian naive Bayes, and a CART decision tree (the
// three models benchmarked as φ), a linear SVM (used by the feature-set
// transferability experiment, Table 7), and a random forest (the
// meta-learner of the DFS optimizer).
//
// All classifiers operate on model-ready datasets (features scaled to
// [0, 1], binary targets) and share a small interface so the DFS evaluator,
// the privacy wrappers, and the evasion attack can treat them uniformly.
package model

import (
	"fmt"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
)

// Classifier is a trainable binary classifier.
type Classifier interface {
	// Name returns a short identifier such as "LR" or "DT".
	Name() string
	// Fit trains on the dataset, replacing any previous state.
	Fit(d *dataset.Dataset) error
	// Predict returns the predicted label (0 or 1) for one instance.
	Predict(x []float64) int
	// PredictProba returns P(y = 1 | x).
	PredictProba(x []float64) float64
	// Clone returns a fresh untrained classifier with identical
	// hyperparameters.
	Clone() Classifier
}

// Importancer is implemented by classifiers that expose intrinsic feature
// importance scores after fitting (LR coefficients, DT gini importance).
// Naive Bayes intentionally does not implement it: the paper notes that NB
// needs permutation importance for RFE, which is what internal/ranking
// provides as the fallback.
type Importancer interface {
	// FeatureImportances returns one non-negative score per feature of the
	// fitted model.
	FeatureImportances() []float64
}

// PredictBatch applies c to every row of x.
func PredictBatch(c Classifier, x *linalg.Matrix) []int {
	return PredictBatchInto(c, x, nil)
}

// PredictBatchInto applies c to every row of x, reusing buf's storage when it
// has enough capacity. The returned slice aliases buf in that case, so
// callers that keep predictions across calls must pass distinct buffers.
func PredictBatchInto(c Classifier, x *linalg.Matrix, buf []int) []int {
	var out []int
	if cap(buf) >= x.Rows {
		out = buf[:x.Rows]
	} else {
		out = make([]int, x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		out[i] = c.Predict(x.Row(i))
	}
	return out
}

// Kind enumerates the model families of the study.
type Kind string

const (
	// KindLR is l2-regularized logistic regression.
	KindLR Kind = "LR"
	// KindNB is Gaussian naive Bayes.
	KindNB Kind = "NB"
	// KindDT is a CART decision tree.
	KindDT Kind = "DT"
	// KindSVM is a linear support vector machine.
	KindSVM Kind = "SVM"
)

// Kinds lists the three classification models of the main benchmark.
var Kinds = []Kind{KindLR, KindNB, KindDT}

// Spec declares a model family together with its hyperparameters; the DFS
// evaluator instantiates a fresh classifier from the spec for every
// training run.
type Spec struct {
	Kind Kind

	// C is the inverse regularization strength of LR (sklearn convention);
	// also used as the SVM regularization trade-off. Zero means default (1).
	C float64
	// VarSmoothing is the NB variance floor fraction. Zero means 1e-9.
	VarSmoothing float64
	// MaxDepth is the DT depth limit. Zero means 4.
	MaxDepth int
}

// New instantiates an untrained classifier from the spec.
func New(s Spec) (Classifier, error) {
	switch s.Kind {
	case KindLR:
		c := s.C
		if c == 0 {
			c = 1
		}
		return NewLogReg(c), nil
	case KindNB:
		vs := s.VarSmoothing
		if vs == 0 {
			vs = 1e-9
		}
		return NewGaussianNB(vs), nil
	case KindDT:
		depth := s.MaxDepth
		if depth == 0 {
			depth = 4
		}
		return NewTree(depth), nil
	case KindSVM:
		c := s.C
		if c == 0 {
			c = 1
		}
		return NewLinearSVM(c), nil
	default:
		return nil, fmt.Errorf("model: unknown kind %q", s.Kind)
	}
}

// DefaultGrid returns the paper's HPO grid for the model kind (§6.1):
// LR C ∈ {10⁻², …, 10³}, NB var_smoothing ∈ [1e-12, 1e-6] (log grid),
// DT max depth ∈ [1, 7]. SVM reuses the LR grid on C.
func DefaultGrid(kind Kind) []Spec {
	switch kind {
	case KindLR, KindSVM:
		out := make([]Spec, 0, 6)
		c := 0.01
		for i := 0; i < 6; i++ {
			out = append(out, Spec{Kind: kind, C: c})
			c *= 10
		}
		return out
	case KindNB:
		out := make([]Spec, 0, 7)
		vs := 1e-12
		for i := 0; i < 7; i++ {
			out = append(out, Spec{Kind: kind, VarSmoothing: vs})
			vs *= 10
		}
		return out
	case KindDT:
		out := make([]Spec, 0, 7)
		for d := 1; d <= 7; d++ {
			out = append(out, Spec{Kind: kind, MaxDepth: d})
		}
		return out
	default:
		return nil
	}
}

// majorityLabel returns the most frequent label, defaulting to 0 on ties.
func majorityLabel(y []int) int {
	ones := 0
	for _, v := range y {
		ones += v
	}
	if 2*ones > len(y) {
		return 1
	}
	return 0
}
