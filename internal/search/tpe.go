package search

import (
	"math"
	"sort"

	"github.com/declarative-fs/dfs/internal/xrand"
)

// TPEConfig tunes TPETopK. The TPE ablation's random arm sets
// StartupTrials beyond any trial count.
type TPEConfig struct {
	// StartupTrials is the number of initial random trials before the
	// Parzen split kicks in; 0 means 8.
	StartupTrials int
}

const (
	// tpeStartupTrials is TPEBinary's random trials, StartupTrials' default.
	tpeStartupTrials = 8
	// tpeGamma is the good/bad quantile split.
	tpeGamma = 0.25
	// tpeCandidates is the number of samples drawn from the good density
	// per trial.
	tpeCandidates = 16
	// tpeMaxTrials bounds the total number of evaluations; the budget
	// usually stops the search first.
	tpeMaxTrials = 10000
)

type trialK struct {
	k     int
	value float64
}

// TPETopK optimizes the cut point k of a precomputed feature ranking with a
// tree-structured Parzen estimator: observed trials are split into good and
// bad by the objective, both sets are modelled with discrete Parzen windows
// over k, and the next k maximizes the density ratio l(k)/g(k) — Bergstra's
// EI surrogate. ranking lists feature indices from most to least relevant;
// the mask evaluated for a given k selects ranking[:k].
func TPETopK(obj Objective, ranking []int, cfg TPEConfig, rng *xrand.RNG) error {
	startup := cfg.StartupTrials
	if startup == 0 {
		startup = tpeStartupTrials
	}
	p := obj.NumFeatures()
	maxK := len(ranking)
	if maxK == 0 {
		return nil
	}
	evalK := func(k int) (float64, bool, error) {
		mask := make([]bool, p)
		for _, j := range ranking[:k] {
			mask[j] = true
		}
		return obj.Evaluate(mask)
	}

	var history []trialK
	seen := make(map[int]bool)
	for trial := 0; trial < tpeMaxTrials; trial++ {
		var k int
		if len(history) < startup {
			k = 1 + rng.Intn(maxK)
		} else {
			k = proposeK(history, maxK, rng)
		}
		if seen[k] && len(seen) < maxK {
			// Nudge to an unseen k deterministically.
			for delta := 1; delta < maxK; delta++ {
				if k+delta <= maxK && !seen[k+delta] {
					k += delta
					break
				}
				if k-delta >= 1 && !seen[k-delta] {
					k -= delta
					break
				}
			}
		}
		seen[k] = true
		v, stop, err := evalK(k)
		if stop, err := done(stop, err); stop || err != nil {
			return err
		}
		history = append(history, trialK{k, v})
		if len(seen) == maxK {
			return nil // every cut evaluated
		}
	}
	return nil
}

// proposalWindow bounds the history a proposal step models; keeping only
// the most recent trials keeps the per-trial cost constant (the full history
// would make long runs quadratic) while staying adaptive.
const proposalWindow = 512

// proposeK samples candidate cuts from the good-trial Parzen mixture and
// returns the one with the highest l/g density ratio.
func proposeK(history []trialK, maxK int, rng *xrand.RNG) int {
	if len(history) > proposalWindow {
		history = history[len(history)-proposalWindow:]
	}
	sorted := append([]trialK(nil), history...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].value < sorted[b].value })
	nGood := int(tpeGamma * float64(len(sorted)))
	if nGood < 1 {
		nGood = 1
	}
	good, bad := sorted[:nGood], sorted[nGood:]

	bandwidth := float64(maxK) / 10
	if bandwidth < 1 {
		bandwidth = 1
	}
	density := func(set []trialK, k int) float64 {
		// Parzen mixture of discretized Gaussians plus a uniform prior.
		d := 1.0 / float64(maxK)
		for _, t := range set {
			z := float64(k-t.k) / bandwidth
			d += math.Exp(-0.5 * z * z)
		}
		return d / float64(len(set)+1)
	}
	bestK, bestRatio := 1, math.Inf(-1)
	for c := 0; c < tpeCandidates; c++ {
		var k int
		if len(good) > 0 && rng.Bool(0.8) {
			t := good[rng.Intn(len(good))]
			k = t.k + int(math.Round(rng.Normal(0, bandwidth)))
		} else {
			k = 1 + rng.Intn(maxK)
		}
		if k < 1 {
			k = 1
		}
		if k > maxK {
			k = maxK
		}
		ratio := density(good, k)
		if len(bad) > 0 {
			ratio /= density(bad, k)
		}
		if ratio > bestRatio {
			bestK, bestRatio = k, ratio
		}
	}
	return bestK
}

type trialMask struct {
	mask  []bool
	value float64
}

// TPEBinary optimizes the raw binary decision vector (TPE(NR)): each feature
// is an independent Bernoulli whose good/bad densities come from the
// observed trials, candidates are sampled from the good distribution, and
// the candidate with the highest likelihood ratio is evaluated next.
func TPEBinary(obj Objective, rng *xrand.RNG) error {
	p := obj.NumFeatures()
	if p == 0 {
		return nil
	}
	var history []trialMask
	// totals holds the per-feature on-counts of the trailing proposal window,
	// maintained incrementally so each proposal only counts the good quantile
	// and derives the bad side by exact integer subtraction.
	totals := make([]float64, p)
	seen := make(map[string]bool)
	for trial := 0; trial < tpeMaxTrials; trial++ {
		var mask []bool
		if len(history) < tpeStartupTrials {
			mask = randomNonEmptyMask(p, rng)
		} else {
			mask = proposeMask(history, totals, p, rng)
		}
		// Never waste budget on a duplicate: perturb until unseen, falling
		// back to pure exploration.
		for tries := 0; seen[maskKey(mask)] && tries < 4*p; tries++ {
			j := rng.Intn(p)
			mask[j] = !mask[j]
			if countMask(mask) == 0 {
				mask[j] = true
			}
		}
		if seen[maskKey(mask)] {
			mask = randomNonEmptyMask(p, rng)
		}
		seen[maskKey(mask)] = true
		v, stop, err := obj.Evaluate(mask)
		if stop, err := done(stop, err); stop || err != nil {
			return err
		}
		history = append(history, trialMask{append([]bool(nil), mask...), v})
		for j, on := range mask {
			if on {
				totals[j]++
			}
		}
		if len(history) > proposalWindow {
			// The oldest trial just left the window; retire its counts.
			for j, on := range history[len(history)-proposalWindow-1].mask {
				if on {
					totals[j]--
				}
			}
		}
	}
	return nil
}

func randomNonEmptyMask(p int, rng *xrand.RNG) []bool {
	mask := make([]bool, p)
	any := false
	for j := range mask {
		if rng.Bool(0.5) {
			mask[j] = true
			any = true
		}
	}
	if !any {
		mask[rng.Intn(p)] = true
	}
	return mask
}

// proposeMask scores candidate masks by the per-bit Bernoulli likelihood
// ratio between good and bad trials (with add-one smoothing). totals must be
// the per-feature on-counts of the trailing proposalWindow trials; the bad
// side's counts are derived from it by exact integer subtraction, so only the
// good quantile is counted per call.
func proposeMask(history []trialMask, totals []float64, p int, rng *xrand.RNG) []bool {
	if len(history) > proposalWindow {
		history = history[len(history)-proposalWindow:]
	}
	// Sort a permutation, not a copy of the trials: the comparator sees the
	// same value sequence the trial-copy sort saw, so ties land identically.
	idx := make([]int, len(history))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return history[idx[a]].value < history[idx[b]].value })
	nGood := int(tpeGamma * float64(len(idx)))
	if nGood < 1 {
		nGood = 1
	}
	nBad := len(idx) - nGood

	goodCount := make([]float64, p)
	for _, i := range idx[:nGood] {
		for j, on := range history[i].mask {
			if on {
				goodCount[j]++
			}
		}
	}
	gden := float64(nGood) + 2
	bden := float64(nBad) + 2
	pGood := make([]float64, p)
	pBad := make([]float64, p)
	for j := 0; j < p; j++ {
		pGood[j] = (goodCount[j] + 1) / gden // add-one smoothing
		pBad[j] = (totals[j] - goodCount[j] + 1) / bden
	}

	// Every candidate sums the same p log-likelihood-ratio terms, only the
	// on/off choice per bit differs — take the logs once, not per candidate.
	logOn := make([]float64, p)
	logOff := make([]float64, p)
	for j := 0; j < p; j++ {
		logOn[j] = math.Log(pGood[j] / pBad[j])
		logOff[j] = math.Log((1 - pGood[j]) / (1 - pBad[j]))
	}

	var best []bool
	bestScore := math.Inf(-1)
	for c := 0; c < tpeCandidates; c++ {
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
			if mask[j] {
				score += logOn[j]
			} else {
				score += logOff[j]
			}
		}
		if score > bestScore {
			best, bestScore = mask, score
		}
	}
	return best
}

const (
	// saInitialTemp is the starting temperature T₀.
	saInitialTemp = 1.0
	// saCooling is the geometric cooling factor per iteration.
	saCooling = 0.97
	// saMaxIters bounds the schedule.
	saMaxIters = 10000
)

// SimulatedAnnealing optimizes the binary decision vector with Metropolis
// acceptance and a geometric cooling schedule (SA(NR)).
func SimulatedAnnealing(obj Objective, rng *xrand.RNG) error {
	p := obj.NumFeatures()
	if p == 0 {
		return nil
	}
	mask := randomNonEmptyMask(p, rng)
	current, stop, err := obj.Evaluate(mask)
	if stop, err := done(stop, err); stop || err != nil {
		return err
	}
	temp := saInitialTemp
	for iter := 0; iter < saMaxIters; iter++ {
		j := rng.Intn(p)
		mask[j] = !mask[j]
		if countMask(mask) == 0 {
			mask[j] = true
			continue
		}
		v, stop, err := obj.Evaluate(mask)
		if stop, err := done(stop, err); stop || err != nil {
			return err
		}
		accept := v <= current
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-(v-current)/temp)
		}
		if accept {
			current = v
		} else {
			mask[j] = !mask[j] // revert
		}
		temp *= saCooling
	}
	return nil
}
