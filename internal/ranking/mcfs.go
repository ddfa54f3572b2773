package ranking

import (
	"fmt"
	"math"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// MCFS is the sparse-learning-based multi-cluster feature selection of Cai,
// Zhang & He: build a k-nearest-neighbour affinity graph over (a sample of)
// the instances, take the bottom non-trivial eigenvectors of its normalized
// Laplacian as a spectral embedding, regress each embedding dimension onto
// the features with an l1 penalty, and score each feature by its largest
// absolute coefficient across the embedding regressions. It is unsupervised:
// the target is never consulted.
type MCFS struct{}

const (
	// mcfsEmbeddingDims is K, the number of spectral dimensions.
	mcfsEmbeddingDims = 4
	// mcfsGraphNeighbors is the kNN graph degree.
	mcfsGraphNeighbors = 5
	// mcfsSampleRows caps the graph size.
	mcfsSampleRows = 200
	// mcfsAlpha is the lasso penalty.
	mcfsAlpha = 0.01
)

// EmbeddingError reports an MCFS spectral embedding that failed on the
// sampled Laplacian: a non-finite entry, or an eigendecomposition that did
// not converge within its sweep limit. The row sample is RNG-drawn, so a
// retry under a perturbed seed builds a different graph; the error
// therefore reports Transient() == true for the retry classification in
// internal/core.
type EmbeddingError struct {
	Err error
}

func (e *EmbeddingError) Error() string { return fmt.Sprintf("ranking: MCFS embedding: %v", e.Err) }

func (e *EmbeddingError) Unwrap() error { return e.Err }

// Transient marks the error as retryable under a perturbed seed.
func (e *EmbeddingError) Transient() bool { return true }

// Name implements Ranker.
func (MCFS) Name() string { return "MCFS" }

// Family implements Ranker.
func (MCFS) Family() budget.RankingFamily { return budget.RankMCFS }

// Rank implements Ranker.
func (MCFS) Rank(train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: MCFS on empty dataset")
	}
	if rng == nil {
		return nil, fmt.Errorf("ranking: MCFS needs an RNG")
	}
	// Sample rows to bound the O(n²) graph and O(n³) eigendecomposition.
	x := train.X
	if n > mcfsSampleRows {
		rows := rng.Sample(n, mcfsSampleRows)
		x = x.SelectRows(rows)
		n = mcfsSampleRows
	}
	kDims := mcfsEmbeddingDims
	if kDims >= n {
		kDims = n - 1
	}
	if kDims < 1 {
		kDims = 1
	}

	// Heat-kernel kNN affinity graph, symmetrized.
	w := linalg.NewMatrix(n, n)
	// Bandwidth: mean squared distance between sampled pairs.
	sigma2 := 0.0
	pairs := 0
	for i := 0; i < n; i += 2 {
		for l := i + 1; l < n && l < i+4; l++ {
			sigma2 += linalg.SqDist(x.Row(i), x.Row(l))
			pairs++
		}
	}
	if pairs > 0 {
		sigma2 /= float64(pairs)
	}
	if sigma2 <= 0 {
		sigma2 = 1
	}
	// The symmetrized max-merge writes w[i,l] and w[l,i], so rows merge in
	// row order; the neighbour search reads only x. Every row is a
	// candidate, and the heap scratch is reused across rows.
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	var scratch linalg.NNScratch
	var nn []int
	for i := 0; i < n; i++ {
		nn = linalg.KNN(x, x.Row(i), all, mcfsGraphNeighbors+1, linalg.Euclidean, i, &scratch, nn)
		for _, l := range nn {
			a := math.Exp(-linalg.SqDist(x.Row(i), x.Row(l)) / sigma2)
			if a > w.At(i, l) {
				w.Set(i, l, a)
				w.Set(l, i, a)
			}
		}
	}

	// Normalized Laplacian L = I − D^{-1/2} W D^{-1/2}, written over w: once
	// every degree is known, each entry reads only its own weight.
	dInvSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		d := 0.0
		for _, a := range w.Row(i) {
			d += a
		}
		if d > 0 {
			dInvSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	for i := 0; i < n; i++ {
		row := w.Row(i)
		for l, a := range row {
			v := -dInvSqrt[i] * a * dInvSqrt[l]
			if i == l {
				v += 1
			}
			row[l] = v
		}
	}
	// EigenSym rotates the Laplacian in place and returns the bottom
	// eigenvectors as rows: the constant first one and the kDims after it.
	nVecs := kDims + 1
	if nVecs > n {
		nVecs = n
	}
	_, vecs, err := linalg.EigenSym(w, nVecs)
	if err != nil {
		return nil, &EmbeddingError{Err: err}
	}

	// Bottom kDims non-trivial eigenvectors (skip the constant first one),
	// each regressed onto the features with lasso.
	scores := make([]float64, p)
	for k := 1; k < vecs.Rows; k++ {
		coef := linalg.LassoCD(x, vecs.Row(k), mcfsAlpha, 200, 1e-7)
		for j, c := range coef {
			if a := math.Abs(c); a > scores[j] {
				scores[j] = a
			}
		}
	}
	return scores, nil
}
