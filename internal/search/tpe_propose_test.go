package search

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/declarative-fs/dfs/internal/xrand"
)

// referenceProposeMask is the original full-recount proposal step, kept as a
// test oracle: the windowed incremental counting in proposeMask must produce
// bit-identical proposals (including tie handling in the good/bad split and
// identical RNG consumption).
func referenceProposeMask(history []trialMask, p int, rng *xrand.RNG) []bool {
	if len(history) > proposalWindow {
		history = history[len(history)-proposalWindow:]
	}
	sorted := append([]trialMask(nil), history...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].value < sorted[b].value })
	nGood := int(0.25 * float64(len(sorted)))
	if nGood < 1 {
		nGood = 1
	}
	good, bad := sorted[:nGood], sorted[nGood:]

	rates := func(set []trialMask) []float64 {
		out := make([]float64, p)
		for j := 0; j < p; j++ {
			on := 1.0 // add-one smoothing
			for _, t := range set {
				if t.mask[j] {
					on++
				}
			}
			out[j] = on / (float64(len(set)) + 2)
		}
		return out
	}
	pGood := rates(good)
	pBad := rates(bad)

	var best []bool
	bestScore := math.Inf(-1)
	for c := 0; c < 16; c++ {
		mask := make([]bool, p)
		any := false
		for j := 0; j < p; j++ {
			if rng.Bool(pGood[j]) {
				mask[j] = true
				any = true
			}
		}
		if !any {
			mask[rng.Intn(p)] = true
		}
		score := 0.0
		for j := 0; j < p; j++ {
			pg, pb := pGood[j], pBad[j]
			if mask[j] {
				score += math.Log(pg / pb)
			} else {
				score += math.Log((1 - pg) / (1 - pb))
			}
		}
		if score > bestScore {
			best, bestScore = mask, score
		}
	}
	return best
}

// windowTotals recomputes the trailing-window per-feature on-counts the way
// TPEBinary maintains them incrementally.
func windowTotals(history []trialMask, p int) []float64 {
	if len(history) > proposalWindow {
		history = history[len(history)-proposalWindow:]
	}
	totals := make([]float64, p)
	for _, t := range history {
		for j, on := range t.mask {
			if on {
				totals[j]++
			}
		}
	}
	return totals
}

func TestProposeMaskMatchesReference(t *testing.T) {
	for _, p := range []int{3, 17, 40} {
		for _, n := range []int{9, 60, proposalWindow + 37} {
			gen := xrand.NewStream(uint64(p*1000+n), 0x9e)
			history := make([]trialMask, n)
			for i := range history {
				mask := make([]bool, p)
				for j := range mask {
					mask[j] = gen.Bool(0.4)
				}
				// Quantized values force ties, including at the good/bad
				// boundary — the regression the permutation sort must get
				// right.
				history[i] = trialMask{mask, float64(gen.Intn(5))}
			}
			totals := windowTotals(history, p)
			// Identical RNG streams: the two implementations must consume
			// randomness identically, not just return the same mask.
			rngA := xrand.NewStream(42, 0x7e57)
			rngB := xrand.NewStream(42, 0x7e57)
			for round := 0; round < 5; round++ {
				got := proposeMask(history, totals, p, rngA)
				want := referenceProposeMask(history, p, rngB)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("p=%d n=%d round=%d: proposal diverged from reference\ngot  %v\nwant %v",
						p, n, round, got, want)
				}
			}
		}
	}
}
