// Package search implements the search drivers behind the 16 FS strategies
// of §4.2: exhaustive enumeration, the sequential (floating) forward and
// backward selections of Aha/Pudil, recursive feature elimination, the
// tree-structured Parzen estimator of Bergstra et al. (both over a top-k cut
// of a ranking and over the raw binary decision vector), Metropolis
// simulated annealing, and the NSGA-II evolutionary multi-objective
// optimizer of Deb et al.
//
// Drivers are decoupled from ML concerns: they optimize an Objective over
// boolean feature masks. The objective is expected to return
// budget.ErrExhausted when the search budget is spent; drivers propagate it.
// A driver returns nil when it stopped because the objective signalled
// success or because its search space/schedule was exhausted.
package search

import (
	"errors"

	"github.com/declarative-fs/dfs/internal/budget"
)

// Objective scores a feature mask; lower is better (the DFS distance or
// Eq. 2 objective).
type Objective interface {
	// NumFeatures returns the mask width.
	NumFeatures() int
	// Evaluate scores mask. stop=true tells the driver to terminate (a
	// satisfying subset was confirmed). The error budget.ErrExhausted stops
	// any driver.
	Evaluate(mask []bool) (value float64, stop bool, err error)
}

// MultiObjective additionally exposes a vector of objectives (one per
// constraint) for NSGA-II.
type MultiObjective interface {
	Objective
	// NumObjectives returns the vector width.
	NumObjectives() int
	// EvaluateMulti scores mask on every objective (all minimized).
	EvaluateMulti(mask []bool) (values []float64, stop bool, err error)
}

// done reports whether a driver should exit and with what verdict.
func done(stop bool, err error) (bool, error) {
	if err != nil {
		if errors.Is(err, budget.ErrExhausted) {
			return true, nil // budget exhaustion is a normal termination
		}
		return true, err
	}
	return stop, nil
}

// Exhaustive enumerates all non-empty feature subsets in ascending size
// order (ES(NR)). Cheap small subsets are evaluated first, which is what
// lets exhaustive search cover small-feature-set scenarios before the budget
// runs out even on wide data.
func Exhaustive(obj Objective) error {
	p := obj.NumFeatures()
	mask := make([]bool, p)
	idx := make([]int, 0, p)
	var rec func(start, remaining int) (bool, error)
	rec = func(start, remaining int) (bool, error) {
		if remaining == 0 {
			_, stop, err := obj.Evaluate(mask)
			return done(stop, err)
		}
		for j := start; j <= p-remaining; j++ {
			mask[j] = true
			idx = append(idx, j)
			stop, err := rec(j+1, remaining-1)
			mask[j] = false
			idx = idx[:len(idx)-1]
			if stop || err != nil {
				return stop, err
			}
		}
		return false, nil
	}
	for size := 1; size <= p; size++ {
		stop, err := rec(0, size)
		if stop || err != nil {
			return err
		}
	}
	return nil
}

// SequentialForward implements SFS(NR) and, with floating=true, the SFFS of
// Pudil et al.: start empty, greedily add the feature that most improves the
// objective; after each addition a floating pass removes features whose
// removal improves the objective further, while more than two remain.
func SequentialForward(obj Objective, floating bool) error {
	mask := make([]bool, obj.NumFeatures())
	for range mask {
		j, v, stop, err := bestSwitch(obj, mask, true)
		if stop || j < 0 {
			return err
		}
		// Greedy even when not improving: constraints may need larger sets.
		mask[j] = true
		if floating {
			if stop, err := floatPass(obj, mask, false, v); stop {
				return err
			}
		}
	}
	return nil
}

// SequentialBackward implements SBS(NR) and, with floating=true, SBFS:
// start with all features, greedily remove the feature whose removal most
// improves (least degrades) the objective; the floating pass re-adds
// features when beneficial, while fewer than p−1 are selected.
//
// A floating pass can re-add the feature just removed, so the mask at the
// top of the loop can repeat. Every evaluation from there on repeats an
// earlier one, so the search stops instead of cycling until its budget
// runs out.
func SequentialBackward(obj Objective, floating bool) error {
	mask := make([]bool, obj.NumFeatures())
	for j := range mask {
		mask[j] = true
	}
	_, stop, err := obj.Evaluate(mask)
	if stop, err := done(stop, err); stop {
		return err
	}
	seen := make(map[string]bool) // SBFS's masks at the top of the loop
	for countMask(mask) > 1 {
		if floating {
			key := maskKey(mask)
			if seen[key] {
				return nil
			}
			seen[key] = true
		}
		j, v, stop, err := bestSwitch(obj, mask, false)
		if stop || j < 0 {
			return err
		}
		mask[j] = false
		if floating {
			if stop, err := floatPass(obj, mask, true, v); stop {
				return err
			}
		}
	}
	return nil
}

// bestSwitch sets each feature whose bit is not on to on, one at a time in
// index order, evaluates the mask and restores the bit. It returns the
// first feature with the lowest value, or -1 when every bit already is on;
// stop reports that the driver must exit with err.
func bestSwitch(obj Objective, mask []bool, on bool) (best int, bestV float64, stop bool, err error) {
	best = -1
	for j := range mask {
		if mask[j] == on {
			continue
		}
		mask[j] = on
		v, stop, err := obj.Evaluate(mask)
		mask[j] = !on
		if stop, err := done(stop, err); stop {
			return -1, 0, true, err
		}
		if best < 0 || v < bestV {
			best, bestV = j, v
		}
	}
	return best, bestV, false, nil
}

// floatPass is the floating step from a mask whose value is current: while
// more than two features are selected (removal, on = false) or fewer than
// p−1 (addition), it takes the best switch if that improves on current.
// Objective values are never NaN: the evaluator scores a NaN metric as a
// maximal violation.
func floatPass(obj Objective, mask []bool, on bool, current float64) (bool, error) {
	for {
		if n := countMask(mask); on && n >= len(mask)-1 || !on && n <= 2 {
			return false, nil
		}
		j, v, stop, err := bestSwitch(obj, mask, on)
		if stop || !(v < current) {
			return stop, err
		}
		mask[j] = on
		current = v
	}
}

// RFE implements recursive feature elimination (Guyon et al.): starting from
// the full set, each round asks rank for importance scores of the currently
// selected features (indexed in the full feature space) and removes the
// least important one, evaluating each intermediate subset against the
// objective.
func RFE(obj Objective, rank func(mask []bool) ([]float64, error)) error {
	p := obj.NumFeatures()
	mask := make([]bool, p)
	for j := range mask {
		mask[j] = true
	}
	_, stop, err := obj.Evaluate(mask)
	if stop, err := done(stop, err); stop || err != nil {
		return err
	}
	for countMask(mask) > 1 {
		scores, err := rank(mask)
		if err != nil {
			if errors.Is(err, budget.ErrExhausted) {
				return nil
			}
			return err
		}
		worst, worstV := -1, 0.0
		for j := 0; j < p; j++ {
			if !mask[j] {
				continue
			}
			if worst < 0 || scores[j] < worstV {
				worst, worstV = j, scores[j]
			}
		}
		mask[worst] = false
		_, stop, err := obj.Evaluate(mask)
		if stop, err := done(stop, err); stop || err != nil {
			return err
		}
	}
	return nil
}

// maskKey encodes mask as a string of '0' and '1' bytes, for sets of masks.
func maskKey(mask []bool) string {
	b := make([]byte, len(mask))
	for j, on := range mask {
		if on {
			b[j] = '1'
		} else {
			b[j] = '0'
		}
	}
	return string(b)
}

func countMask(mask []bool) int {
	c := 0
	for _, b := range mask {
		if b {
			c++
		}
	}
	return c
}
