package ranking

import (
	"fmt"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/metrics"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// ModelImportance ranks features with the classification model's own
// importance scores (LR coefficients, DT Gini importance). For models
// without intrinsic importances — NB, as the paper notes in §6.3 — it falls
// back to permutation importance (Breiman), which the paper flags as the
// cause of RFE's runtime overhead under NB.
type ModelImportance struct {
	// Spec is the classifier whose notion of importance is used.
	Spec model.Spec

	// UsedPermutation reports whether the last Rank call had to fall back.
	UsedPermutation bool
}

// Name implements Ranker.
func (m *ModelImportance) Name() string { return "Model" }

// Family implements Ranker.
func (m *ModelImportance) Family() budget.RankingFamily { return budget.RankModel }

// Rank implements Ranker. Training happens on train; the permutation
// fallback also scores on train (RFE re-ranks inside the wrapper loop, so no
// validation data is available here).
func (m *ModelImportance) Rank(train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	clf, err := model.New(m.Spec)
	if err != nil {
		return nil, err
	}
	if err := clf.Fit(train); err != nil {
		return nil, err
	}
	if imp, ok := clf.(model.Importancer); ok {
		m.UsedPermutation = false
		return imp.FeatureImportances(), nil
	}
	if rng == nil {
		return nil, fmt.Errorf("ranking: permutation importance needs an RNG")
	}
	m.UsedPermutation = true
	return PermutationImportance(clf, train, PermutationRepeats, rng)
}

// PermutationRepeats is the number of shuffles per feature in the
// permutation fallback; RFE charges its budget surcharge by it.
const PermutationRepeats = 3

// PermutationImportance measures each feature's importance as the F1 drop
// when that feature's column is shuffled (Breiman, 2001). The classifier
// must already be fitted. Scores are clamped at zero.
func PermutationImportance(clf model.Classifier, d *dataset.Dataset, repeats int, rng *xrand.RNG) ([]float64, error) {
	n, p := d.Rows(), d.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: permutation importance on empty dataset")
	}
	base := metrics.F1Score(d.Y, model.PredictBatch(clf, d.X))
	out := make([]float64, p)
	x := d.X.Clone()
	orig := make([]float64, n)
	for j := 0; j < p; j++ {
		for i := 0; i < n; i++ {
			orig[i] = x.At(i, j)
		}
		drop := 0.0
		for r := 0; r < repeats; r++ {
			perm := rng.Perm(n)
			for i := 0; i < n; i++ {
				x.Set(i, j, orig[perm[i]])
			}
			drop += base - metrics.F1Score(d.Y, model.PredictBatch(clf, x))
		}
		for i := 0; i < n; i++ {
			x.Set(i, j, orig[i])
		}
		v := drop / float64(repeats)
		if v < 0 {
			v = 0
		}
		out[j] = v
	}
	return out, nil
}
