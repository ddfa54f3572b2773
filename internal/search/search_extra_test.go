package search

import (
	"testing"

	"github.com/declarative-fs/dfs/internal/xrand"
)

func TestExhaustiveSingleFeature(t *testing.T) {
	h := newHamming(mask(0)(1), true)
	if err := Exhaustive(h); err != nil {
		t.Fatal(err)
	}
	if h.evals != 1 || h.bestValue != 0 {
		t.Fatalf("evals %d best %v", h.evals, h.bestValue)
	}
}

func TestSequentialForwardEvaluatesGrowingSizes(t *testing.T) {
	h := newHamming(mask(0, 1, 2, 3)(5), false)
	h.maxEvals = 30
	if err := SequentialForward(h, false); err != nil {
		t.Fatal(err)
	}
	// Masks within one SFS round share a size; sizes never shrink.
	maxSize := 0
	for _, m := range h.history {
		size := countMask(m)
		if size < maxSize-1 {
			t.Fatalf("SFS evaluated size %d after reaching %d", size, maxSize)
		}
		if size > maxSize {
			maxSize = size
		}
	}
}

func TestSequentialBackwardEvaluatesShrinkingSizes(t *testing.T) {
	h := newHamming(mask(0)(5), false)
	h.maxEvals = 40
	if err := SequentialBackward(h, false); err != nil {
		t.Fatal(err)
	}
	minSize := len(h.target)
	for _, m := range h.history[1:] { // first evaluation is the full set
		size := countMask(m)
		if size > minSize+1 {
			t.Fatalf("SBS evaluated size %d after reaching %d", size, minSize)
		}
		if size < minSize {
			minSize = size
		}
	}
}

func TestSimulatedAnnealingAcceptsWorseMovesWhenHot(t *testing.T) {
	// While the temperature is near T₀ = 1, SA walks away from its best:
	// it must visit masks worse than its best.
	h := newHamming(mask(0)(6), false)
	h.maxEvals = 200
	if err := SimulatedAnnealing(h, xrand.New(9)); err != nil {
		t.Fatal(err)
	}
	sawWorse := false
	bestSoFar := 1e18
	for _, m := range h.history {
		v := 0.0
		for j := range m {
			if m[j] != h.target[j] {
				v++
			}
		}
		if v > bestSoFar {
			sawWorse = true
		}
		if v < bestSoFar {
			bestSoFar = v
		}
	}
	if !sawWorse {
		t.Fatal("hot SA never accepted a worse state")
	}
}

func TestTPETopKEmptyRanking(t *testing.T) {
	h := newHamming(mask(0)(3), false)
	if err := TPETopK(h, nil, TPEConfig{}, xrand.New(1)); err != nil {
		t.Fatal(err)
	}
	if h.evals != 0 {
		t.Fatal("empty ranking evaluated something")
	}
}

func TestRandomNonEmptyMaskNeverEmpty(t *testing.T) {
	rng := xrand.New(4)
	for i := 0; i < 500; i++ {
		if countMask(randomNonEmptyMask(3, rng)) == 0 {
			t.Fatal("empty mask produced")
		}
	}
}

func TestEnvironmentalSelectionKeepsBest(t *testing.T) {
	pop := []*individual{
		{mask: []bool{true}, objs: []float64{5, 5}},
		{mask: []bool{true}, objs: []float64{1, 1}}, // dominates everything
		{mask: []bool{true}, objs: []float64{3, 3}},
		{mask: []bool{true}, objs: []float64{2, 4}},
	}
	kept := environmentalSelection(pop, 2)
	if len(kept) != 2 {
		t.Fatalf("kept %d", len(kept))
	}
	if kept[0].objs[0] != 1 {
		t.Fatal("dominating individual dropped")
	}
}
