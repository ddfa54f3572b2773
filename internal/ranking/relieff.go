package ranking

import (
	"fmt"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// ReliefF is the similarity-based ranker of Robnik-Šikonja & Kononenko: for
// sampled instances it finds the k nearest hits (same class) and k nearest
// misses (other class) and rewards features that differ across classes but
// agree within a class. The paper uses the default k = 10 neighbours.
type ReliefF struct{}

const (
	// reliefFNeighbors is k, the paper's default.
	reliefFNeighbors = 10
	// reliefFSamples caps the number of seed instances m.
	reliefFSamples = 100
)

// Name implements Ranker.
func (ReliefF) Name() string { return "ReliefF" }

// Family implements Ranker.
func (ReliefF) Family() budget.RankingFamily { return budget.RankReliefF }

// Rank implements Ranker.
func (ReliefF) Rank(train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	if n == 0 {
		return nil, fmt.Errorf("ranking: ReliefF on empty dataset")
	}
	if rng == nil {
		return nil, fmt.Errorf("ranking: ReliefF needs an RNG")
	}

	// Pre-split row indices by class.
	byClass := [2][]int{}
	for i, y := range train.Y {
		byClass[y] = append(byClass[y], i)
	}
	if len(byClass[0]) == 0 || len(byClass[1]) == 0 {
		return make([]float64, p), nil // single class: no signal
	}

	w := make([]float64, p)
	seeds := rng.Sample(n, min(n, reliefFSamples))
	// Neighbour-heap and accumulator scratch is reused across all seeds.
	var hitScratch, missScratch linalg.NNScratch
	var hits, misses []int
	hitAcc := make([]float64, p)
	missAcc := make([]float64, p)
	for _, i := range seeds {
		row := train.X.Row(i)
		y := train.Y[i]
		hits = linalg.KNN(train.X, row, byClass[y], reliefFNeighbors, linalg.Manhattan, i, &hitScratch, hits)
		misses = linalg.KNN(train.X, row, byClass[1-y], reliefFNeighbors, linalg.Manhattan, i, &missScratch, misses)
		if len(hits) == 0 || len(misses) == 0 {
			continue
		}
		// Row-wise accumulation: one pass over each neighbour's row.
		// For a fixed feature j the neighbour additions happen in the
		// same order as the seed implementation's inner loops, so the
		// sums are bit-identical.
		for j := 0; j < p; j++ {
			hitAcc[j], missAcc[j] = 0, 0
		}
		for _, h := range hits {
			hrow := train.X.Row(h)
			for j, v := range hrow {
				hitAcc[j] += absDiff(row[j], v)
			}
		}
		for _, ms := range misses {
			mrow := train.X.Row(ms)
			for j, v := range mrow {
				missAcc[j] += absDiff(row[j], v)
			}
		}
		nh, nm := float64(len(hits)), float64(len(misses))
		for j := 0; j < p; j++ {
			w[j] += missAcc[j]/nm - hitAcc[j]/nh
		}
	}
	// Shift to non-negative scores preserving order.
	lo := 0.0
	for _, v := range w {
		if v < lo {
			lo = v
		}
	}
	for j := range w {
		w[j] -= lo
	}
	return w, nil
}

func absDiff(a, b float64) float64 {
	if a > b {
		return a - b
	}
	return b - a
}
