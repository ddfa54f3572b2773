package search

import (
	"math"
	"sort"

	"github.com/declarative-fs/dfs/internal/xrand"
)

const (
	// nsga2Population is the population size: 30, the configuration Xue et
	// al. use and the paper adopts (§6.2).
	nsga2Population = 30
	// nsga2Generations bounds the evolution.
	nsga2Generations = 1000
	// nsga2CrossoverProb is the per-pair uniform-crossover probability.
	nsga2CrossoverProb = 0.9
)

type individual struct {
	mask      []bool
	objs      []float64
	rank      int
	crowding  float64
	evaluated bool
}

// NSGA2 runs the nondominated sorting genetic algorithm II over binary
// feature masks, minimizing every component of the MultiObjective — the
// paper maps each user constraint to one objective (NSGA-II(NR)).
func NSGA2(obj MultiObjective, rng *xrand.RNG) error {
	p := obj.NumFeatures()
	if p == 0 {
		return nil
	}
	mutationProb := 1 / float64(p) // per bit

	evaluate := func(ind *individual) (bool, error) {
		objs, stop, err := obj.EvaluateMulti(ind.mask)
		if stop, err := done(stop, err); stop || err != nil {
			return true, err
		}
		ind.objs = objs
		ind.evaluated = true
		return false, nil
	}

	pop := make([]*individual, 0, nsga2Population)
	for i := 0; i < nsga2Population; i++ {
		ind := &individual{mask: randomNonEmptyMask(p, rng)}
		if stop, err := evaluate(ind); stop || err != nil {
			return err
		}
		pop = append(pop, ind)
	}

	for gen := 0; gen < nsga2Generations; gen++ {
		assignRanksAndCrowding(pop)
		offspring := make([]*individual, 0, nsga2Population)
		for len(offspring) < nsga2Population {
			a := tournament(pop, rng)
			b := tournament(pop, rng)
			childA, childB := crossover(a.mask, b.mask, nsga2CrossoverProb, rng)
			mutate(childA, mutationProb, rng)
			mutate(childB, mutationProb, rng)
			for _, m := range [][]bool{childA, childB} {
				if countMask(m) == 0 {
					m[rng.Intn(p)] = true
				}
				ind := &individual{mask: m}
				if stop, err := evaluate(ind); stop || err != nil {
					return err
				}
				offspring = append(offspring, ind)
				if len(offspring) == nsga2Population {
					break
				}
			}
		}
		pop = environmentalSelection(append(pop, offspring...), nsga2Population)
	}
	return nil
}

// dominates reports Pareto dominance for minimization.
func dominates(a, b []float64) bool {
	strictly := false
	for i := range a {
		if a[i] > b[i] {
			return false
		}
		if a[i] < b[i] {
			strictly = true
		}
	}
	return strictly
}

// assignRanksAndCrowding performs the fast nondominated sort and computes
// crowding distances per front.
func assignRanksAndCrowding(pop []*individual) {
	n := len(pop)
	dominatedBy := make([][]int, n)
	domCount := make([]int, n)
	var fronts [][]int
	var first []int
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if dominates(pop[i].objs, pop[j].objs) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if dominates(pop[j].objs, pop[i].objs) {
				domCount[i]++
			}
		}
		if domCount[i] == 0 {
			pop[i].rank = 0
			first = append(first, i)
		}
	}
	fronts = append(fronts, first)
	for f := 0; len(fronts[f]) > 0; f++ {
		var next []int
		for _, i := range fronts[f] {
			for _, j := range dominatedBy[i] {
				domCount[j]--
				if domCount[j] == 0 {
					pop[j].rank = f + 1
					next = append(next, j)
				}
			}
		}
		fronts = append(fronts, next)
	}
	for _, front := range fronts {
		crowding(pop, front)
	}
}

// crowding assigns crowding distances within one front.
func crowding(pop []*individual, front []int) {
	if len(front) == 0 {
		return
	}
	for _, i := range front {
		pop[i].crowding = 0
	}
	m := len(pop[front[0]].objs)
	for o := 0; o < m; o++ {
		sorted := append([]int(nil), front...)
		sort.Slice(sorted, func(a, b int) bool {
			return pop[sorted[a]].objs[o] < pop[sorted[b]].objs[o]
		})
		lo := pop[sorted[0]].objs[o]
		hi := pop[sorted[len(sorted)-1]].objs[o]
		pop[sorted[0]].crowding = math.Inf(1)
		pop[sorted[len(sorted)-1]].crowding = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < len(sorted)-1; k++ {
			pop[sorted[k]].crowding += (pop[sorted[k+1]].objs[o] - pop[sorted[k-1]].objs[o]) / (hi - lo)
		}
	}
}

// tournament picks the better of two random individuals by (rank, crowding).
func tournament(pop []*individual, rng *xrand.RNG) *individual {
	a := pop[rng.Intn(len(pop))]
	b := pop[rng.Intn(len(pop))]
	if a.rank < b.rank {
		return a
	}
	if b.rank < a.rank {
		return b
	}
	if a.crowding > b.crowding {
		return a
	}
	return b
}

// crossover performs uniform crossover with the given probability; without
// crossover the parents are copied.
func crossover(a, b []bool, prob float64, rng *xrand.RNG) ([]bool, []bool) {
	ca := append([]bool(nil), a...)
	cb := append([]bool(nil), b...)
	if !rng.Bool(prob) {
		return ca, cb
	}
	for j := range ca {
		if rng.Bool(0.5) {
			ca[j], cb[j] = cb[j], ca[j]
		}
	}
	return ca, cb
}

func mutate(mask []bool, prob float64, rng *xrand.RNG) {
	for j := range mask {
		if rng.Bool(prob) {
			mask[j] = !mask[j]
		}
	}
}

// environmentalSelection keeps the best size individuals by front rank, then
// crowding distance.
func environmentalSelection(pop []*individual, size int) []*individual {
	assignRanksAndCrowding(pop)
	sort.SliceStable(pop, func(a, b int) bool {
		if pop[a].rank != pop[b].rank {
			return pop[a].rank < pop[b].rank
		}
		return pop[a].crowding > pop[b].crowding
	})
	return pop[:size]
}
