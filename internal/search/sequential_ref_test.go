package search

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/declarative-fs/dfs/internal/budget"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// The four functions below are the sequential drivers as they were before
// the four greedy loops became one scan (bestSwitch), kept verbatim apart
// from their names as the oracle for SequentialForward and
// SequentialBackward.

// referenceSequentialForward implements SFS(NR) and, with floating=true, the SFFS of
// Pudil et al.: start empty, greedily add the feature that most improves the
// objective; after each addition a floating pass removes features whose
// removal improves the objective further.
func referenceSequentialForward(obj Objective, floating bool) error {
	p := obj.NumFeatures()
	mask := make([]bool, p)
	current := 0.0
	for size := 0; size < p; size++ {
		bestJ, bestV := -1, 0.0
		for j := 0; j < p; j++ {
			if mask[j] {
				continue
			}
			mask[j] = true
			v, stop, err := obj.Evaluate(mask)
			mask[j] = false
			if stop, err := done(stop, err); stop || err != nil {
				return err
			}
			if bestJ < 0 || v < bestV {
				bestJ, bestV = j, v
			}
		}
		if bestJ < 0 {
			return nil
		}
		// Greedy even when not improving: constraints may need larger sets.
		mask[bestJ] = true
		current = bestV
		if floating {
			stop, err := referenceFloatRemove(obj, mask, &current)
			if stop || err != nil {
				return err
			}
		}
	}
	return nil
}

// referenceFloatRemove repeatedly removes the feature whose removal improves the
// objective, as long as at least two features remain selected.
func referenceFloatRemove(obj Objective, mask []bool, current *float64) (bool, error) {
	for {
		selected := countMask(mask)
		if selected <= 2 {
			return false, nil
		}
		bestJ, bestV := -1, *current
		for j := range mask {
			if !mask[j] {
				continue
			}
			mask[j] = false
			v, stop, err := obj.Evaluate(mask)
			mask[j] = true
			if stop, err := done(stop, err); stop || err != nil {
				return true, err
			}
			if v < bestV {
				bestJ, bestV = j, v
			}
		}
		if bestJ < 0 {
			return false, nil
		}
		mask[bestJ] = false
		*current = bestV
	}
}

// referenceSequentialBackward implements SBS(NR) and, with floating=true, SBFS:
// start with all features, greedily remove the feature whose removal most
// improves (least degrades) the objective; the floating pass re-adds
// features when beneficial.
func referenceSequentialBackward(obj Objective, floating bool) error {
	p := obj.NumFeatures()
	mask := make([]bool, p)
	for j := range mask {
		mask[j] = true
	}
	current, stop, err := obj.Evaluate(mask)
	if stop, err := done(stop, err); stop || err != nil {
		return err
	}
	for countMask(mask) > 1 {
		bestJ, bestV := -1, 0.0
		firstCand := true
		for j := 0; j < p; j++ {
			if !mask[j] {
				continue
			}
			mask[j] = false
			v, stop, err := obj.Evaluate(mask)
			mask[j] = true
			if stop, err := done(stop, err); stop || err != nil {
				return err
			}
			if firstCand || v < bestV {
				bestJ, bestV = j, v
				firstCand = false
			}
		}
		if bestJ < 0 {
			return nil
		}
		mask[bestJ] = false
		current = bestV
		if floating {
			stop, err := referenceFloatAdd(obj, mask, &current)
			if stop || err != nil {
				return err
			}
		}
	}
	return nil
}

// referenceFloatAdd re-adds previously removed features while doing so improves the
// objective.
func referenceFloatAdd(obj Objective, mask []bool, current *float64) (bool, error) {
	p := len(mask)
	for {
		if countMask(mask) >= p-1 {
			return false, nil
		}
		bestJ, bestV := -1, *current
		for j := range mask {
			if mask[j] {
				continue
			}
			mask[j] = true
			v, stop, err := obj.Evaluate(mask)
			mask[j] = false
			if stop, err := done(stop, err); stop || err != nil {
				return true, err
			}
			if v < bestV {
				bestJ, bestV = j, v
			}
		}
		if bestJ < 0 {
			return false, nil
		}
		mask[bestJ] = true
		*current = bestV
	}
}

// cachingObjective scores masks the way core.Evaluator does: a revisit is
// answered from the cache for free, only a first visit is charged (and
// refused with budget.ErrExhausted past maxEvals), and every visit past
// visitCap fails with budget.ErrExhausted. value scores a first visit;
// stopAtZero makes a zero value stop the search, and failAt makes the
// failAt-th first visit fail with errBoom.
type cachingObjective struct {
	p          int
	value      func(mask []bool) float64
	maxEvals   int // 0 = unlimited
	visitCap   int
	stopAtZero bool
	failAt     int // 0 = never

	visits   int
	key      []byte
	cache    map[string]cachedValue
	distinct [][]bool // first visits, in order
}

type cachedValue struct {
	v    float64
	stop bool
}

var errBoom = errors.New("boom")

func (c *cachingObjective) NumFeatures() int { return c.p }

func (c *cachingObjective) Evaluate(mask []bool) (float64, bool, error) {
	c.visits++
	if c.visits > c.visitCap {
		return 0, false, budget.ErrExhausted
	}
	c.key = c.key[:0]
	for _, on := range mask {
		c.key = append(c.key, byte(bool2int(on)))
	}
	if e, ok := c.cache[string(c.key)]; ok {
		return e.v, e.stop, nil
	}
	if c.maxEvals > 0 && len(c.distinct) >= c.maxEvals {
		return 0, false, budget.ErrExhausted
	}
	c.distinct = append(c.distinct, append([]bool(nil), mask...))
	if len(c.distinct) == c.failAt {
		return 0, false, errBoom
	}
	e := cachedValue{v: c.value(mask)}
	e.stop = c.stopAtZero && e.v == 0
	if c.cache == nil {
		c.cache = make(map[string]cachedValue)
	}
	c.cache[string(c.key)] = e
	return e.v, e.stop, nil
}

func bool2int(b bool) int {
	if b {
		return 1
	}
	return 0
}

// hashedValue maps a mask of at most 64 features to one of levels values
// by a splitmix64 hash of its bits under seed, so ties are common and a mask
// scores the same whenever it is visited.
func hashedValue(seed uint64, levels int, mask []bool) float64 {
	z := seed
	for j, on := range mask {
		if on {
			z ^= 1 << j
		}
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z % uint64(levels))
}

var sequentialDrivers = []struct {
	name      string
	run, want func(Objective) error
}{
	{"SFS", func(o Objective) error { return SequentialForward(o, false) },
		func(o Objective) error { return referenceSequentialForward(o, false) }},
	{"SFFS", func(o Objective) error { return SequentialForward(o, true) },
		func(o Objective) error { return referenceSequentialForward(o, true) }},
	{"SBS", func(o Objective) error { return SequentialBackward(o, false) },
		func(o Objective) error { return referenceSequentialBackward(o, false) }},
	{"SBFS", func(o Objective) error { return SequentialBackward(o, true) },
		func(o Objective) error { return referenceSequentialBackward(o, true) }},
}

// TestSequentialMatchesReferenceFuzzed runs every sequential driver and its
// reference on random quantized objectives, with and without an evaluation
// cap, a stop value and a failing evaluation. Both must make the same
// distinct evaluations in the same order and return the same error. The
// reference's SBFS cycles until the visit cap on some of these objectives;
// the driver stops at the first repeated mask, after which the reference
// makes no new evaluation.
func TestSequentialMatchesReferenceFuzzed(t *testing.T) {
	const runs, visitCap = 3000, 2000
	capped := 0
	for _, d := range sequentialDrivers {
		for seed := uint64(1); seed <= runs; seed++ {
			newObj := func() *cachingObjective {
				g := xrand.NewStream(seed, 0x5e9)
				levels := 1 + g.Intn(5)
				o := &cachingObjective{
					p:          1 + g.Intn(9),
					value:      func(m []bool) float64 { return hashedValue(seed<<32, levels, m) },
					visitCap:   visitCap,
					stopAtZero: g.Bool(0.3),
				}
				if g.Bool(0.3) {
					o.maxEvals = 1 + g.Intn(60)
				}
				if g.Bool(0.1) {
					o.failAt = 1 + g.Intn(30)
				}
				return o
			}
			got, want := newObj(), newObj()
			gotErr, wantErr := d.run(got), d.want(want)
			ctx := fmt.Sprintf("%s seed %d (p=%d, maxEvals %d, failAt %d)", d.name, seed, got.p, got.maxEvals, got.failAt)
			if gotErr != wantErr {
				t.Fatalf("%s: error %v, reference %v", ctx, gotErr, wantErr)
			}
			if !reflect.DeepEqual(got.distinct, want.distinct) {
				t.Fatalf("%s: evaluations diverged\ngot  %v\nwant %v", ctx, got.distinct, want.distinct)
			}
			if got.visits > want.visits {
				t.Fatalf("%s: %d visits, reference %d", ctx, got.visits, want.visits)
			}
			if want.visits > visitCap {
				capped++
				if d.name != "SBFS" {
					t.Fatalf("%s: the reference reached the visit cap", ctx)
				}
			}
		}
	}
	t.Logf("the reference reached the visit cap in %d of %d runs", capped, runs*len(sequentialDrivers))
	if capped == 0 {
		t.Fatal("no reference run reached the visit cap: the fuzz misses the SBFS cycle")
	}
}

// TestSBFSStopsAtRepeatedMask pins a cycle: from {1,2,3} the backward step
// removes 1 (value 5) and the floating step adds it back (value 4), so the
// mask at the top of the loop repeats. The reference spins through cached
// masks until the visit cap; the driver stops at the repeat with the same
// evaluations.
func TestSBFSStopsAtRepeatedMask(t *testing.T) {
	values := map[string]float64{"0111": 4, "0011": 5}
	value := func(mask []bool) float64 {
		if v, ok := values[maskKey(mask)]; ok {
			return v
		}
		return 10
	}
	const visitCap = 100000
	got := &cachingObjective{p: 4, value: value, visitCap: visitCap}
	want := &cachingObjective{p: 4, value: value, visitCap: visitCap}
	if err := SequentialBackward(got, true); err != nil {
		t.Fatal(err)
	}
	if err := referenceSequentialBackward(want, true); err != nil {
		t.Fatal(err)
	}
	if want.visits != visitCap+1 {
		t.Fatalf("reference made %d visits, want the cap %d and the refused one", want.visits, visitCap)
	}
	// The full set, its four removals, the three removals from {1,2,3} and
	// the two additions to {2,3}.
	if got.visits != 10 {
		t.Fatalf("driver made %d visits, want 10", got.visits)
	}
	if len(got.distinct) != 8 || !reflect.DeepEqual(got.distinct, want.distinct) {
		t.Fatalf("evaluations %v, reference %v", got.distinct, want.distinct)
	}
}
