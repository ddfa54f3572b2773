// Package ranking implements the feature-ranking families behind the
// top-k FS strategies of §4.2: the statistics-based variance and χ² scores,
// the similarity-based Fisher score and ReliefF, the information-theoretical
// MIM (mutual information maximization) and FCBF (fast correlation-based
// filter via symmetrical uncertainty), the sparse-learning-based MCFS
// (multi-cluster feature selection via a spectral embedding and lasso
// regressions), and the model-based importances (intrinsic scores with a
// permutation-importance fallback) used by RFE.
//
// Every ranker returns one non-negative relevance score per feature; higher
// means more relevant. Rankers never look at validation or test data.
package ranking

import (
	"fmt"
	"math"
	"sort"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Ranker scores the features of a training set.
type Ranker interface {
	// Name identifies the ranking family (matches the paper's names).
	Name() string
	// Family returns the cost class used by the budget meter.
	Family() budget.RankingFamily
	// Rank returns one score per feature of train; higher is better.
	Rank(train *dataset.Dataset, rng *xrand.RNG) ([]float64, error)
}

// Variance ranks features by their variance — low-variance features carry
// little information (§4.2, TPE(Variance)).
type Variance struct{}

// Name implements Ranker.
func (Variance) Name() string { return "Variance" }

// Family implements Ranker.
func (Variance) Family() budget.RankingFamily { return budget.RankVariance }

// Rank implements Ranker.
func (Variance) Rank(train *dataset.Dataset, _ *xrand.RNG) ([]float64, error) {
	if train.Rows() == 0 {
		return nil, fmt.Errorf("ranking: variance on empty dataset")
	}
	p := train.Features()
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		out[j] = linalg.Variance(train.X.Col(j))
	}
	return out, nil
}

// Chi2 ranks features by the χ² statistic between the (non-negative) feature
// values and the class label, following Liu & Setiono — the observed
// per-class feature mass against the mass expected under independence.
type Chi2 struct{}

// Name implements Ranker.
func (Chi2) Name() string { return "Chi2" }

// Family implements Ranker.
func (Chi2) Family() budget.RankingFamily { return budget.RankChi2 }

// Rank implements Ranker.
func (Chi2) Rank(train *dataset.Dataset, _ *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: chi2 on empty dataset")
	}
	zero, one := train.ClassCounts()
	prior := [2]float64{float64(zero) / float64(n), float64(one) / float64(n)}
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		var obs [2]float64
		total := 0.0
		for i := 0; i < n; i++ {
			v := train.X.At(i, j)
			if v < 0 {
				return nil, fmt.Errorf("ranking: chi2 requires non-negative features, feature %d", j)
			}
			obs[train.Y[i]] += v
			total += v
		}
		if total == 0 {
			continue
		}
		for c := 0; c < 2; c++ {
			exp := prior[c] * total
			if exp > 0 {
				d := obs[c] - exp
				out[j] += d * d / exp
			}
		}
	}
	return out, nil
}

// Fisher ranks features by the Fisher score: between-class scatter of the
// feature means over within-class variance (Duda, Hart & Stork).
type Fisher struct{}

// Name implements Ranker.
func (Fisher) Name() string { return "Fisher" }

// Family implements Ranker.
func (Fisher) Family() budget.RankingFamily { return budget.RankFisher }

// Rank implements Ranker.
func (Fisher) Rank(train *dataset.Dataset, _ *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: fisher on empty dataset")
	}
	zero, one := train.ClassCounts()
	counts := [2]float64{float64(zero), float64(one)}
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		col := train.X.Col(j)
		overall := linalg.Mean(col)
		var mean [2]float64
		for i, v := range col {
			mean[train.Y[i]] += v
		}
		for c := 0; c < 2; c++ {
			if counts[c] > 0 {
				mean[c] /= counts[c]
			}
		}
		var within [2]float64
		for i, v := range col {
			c := train.Y[i]
			d := v - mean[c]
			within[c] += d * d
		}
		num, den := 0.0, 0.0
		for c := 0; c < 2; c++ {
			d := mean[c] - overall
			num += counts[c] * d * d
			den += within[c]
		}
		out[j] = num / (den + 1e-12)
	}
	return out, nil
}

// discretize maps feature values in [0, 1] to equal-width bins.
func discretize(col []float64, bins int) []int {
	out := make([]int, len(col))
	for i, v := range col {
		b := int(v * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		if b < 0 {
			b = 0
		}
		out[i] = b
	}
	return out
}

// entropy returns the Shannon entropy (nats) of the code histogram.
func entropy(codes []int, k int) float64 {
	if len(codes) == 0 {
		return 0
	}
	counts := make([]float64, k)
	for _, c := range codes {
		counts[c]++
	}
	h := 0.0
	n := float64(len(codes))
	for _, c := range counts {
		if c > 0 {
			pr := c / n
			h -= pr * math.Log(pr)
		}
	}
	return h
}

// mutualInfo returns I(A; B) in nats for code vectors with alphabets ka, kb.
func mutualInfo(a, b []int, ka, kb int) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	joint := make([]float64, ka*kb)
	ca := make([]float64, ka)
	cb := make([]float64, kb)
	for i := range a {
		joint[a[i]*kb+b[i]]++
		ca[a[i]]++
		cb[b[i]]++
	}
	mi := 0.0
	for x := 0; x < ka; x++ {
		for y := 0; y < kb; y++ {
			j := joint[x*kb+y]
			if j == 0 {
				continue
			}
			mi += j / n * math.Log(j*n/(ca[x]*cb[y]))
		}
	}
	if mi < 0 {
		mi = 0
	}
	return mi
}

// MIMBins is the discretization width shared by MIM and FCBF.
const MIMBins = 8

// MIM ranks features by their mutual information with the target (Lewis,
// 1992). It treats features as independent and does not prune redundancy.
type MIM struct{}

// Name implements Ranker.
func (MIM) Name() string { return "MIM" }

// Family implements Ranker.
func (MIM) Family() budget.RankingFamily { return budget.RankMIM }

// Rank implements Ranker.
func (MIM) Rank(train *dataset.Dataset, _ *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: MIM on empty dataset")
	}
	out := make([]float64, p)
	for j := 0; j < p; j++ {
		codes := discretize(train.X.Col(j), MIMBins)
		out[j] = mutualInfo(codes, train.Y, MIMBins, 2)
	}
	return out, nil
}

// symmetricalUncertainty returns SU(A, B) = 2·I(A;B)/(H(A)+H(B)) ∈ [0, 1].
func symmetricalUncertainty(a, b []int, ka, kb int) float64 {
	ha, hb := entropy(a, ka), entropy(b, kb)
	if ha+hb == 0 {
		return 0
	}
	return 2 * mutualInfo(a, b, ka, kb) / (ha + hb)
}

// FCBF ranks features with the fast correlation-based filter of Yu & Liu:
// features are ordered by symmetrical uncertainty with the target, then a
// redundancy pass removes every feature that is more correlated with an
// already-kept, more relevant feature than with the target. Kept features
// score their SU; removed features score a small fraction of theirs so the
// resulting ranking lists the FCBF selection first.
type FCBF struct{}

// Name implements Ranker.
func (FCBF) Name() string { return "FCBF" }

// Family implements Ranker.
func (FCBF) Family() budget.RankingFamily { return budget.RankFCBF }

// Rank implements Ranker.
func (FCBF) Rank(train *dataset.Dataset, _ *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: FCBF on empty dataset")
	}
	codes := make([][]int, p)
	su := make([]float64, p)
	for j := 0; j < p; j++ {
		codes[j] = discretize(train.X.Col(j), MIMBins)
		su[j] = symmetricalUncertainty(codes[j], train.Y, MIMBins, 2)
	}
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return su[order[a]] > su[order[b]] })

	removed := make([]bool, p)
	var kept []int
	for _, j := range order {
		if removed[j] {
			continue
		}
		kept = append(kept, j)
		for _, l := range order {
			if l == j || removed[l] || su[l] > su[j] {
				continue
			}
			if symmetricalUncertainty(codes[j], codes[l], MIMBins, MIMBins) >= su[l] {
				removed[l] = true
			}
		}
	}
	out := make([]float64, p)
	for _, j := range kept {
		out[j] = 1 + su[j] // kept block ranks above all removed features
	}
	for j := 0; j < p; j++ {
		if removed[j] {
			out[j] = su[j] * 1e-3
		}
	}
	return out, nil
}
