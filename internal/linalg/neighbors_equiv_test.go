package linalg

import (
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/declarative-fs/dfs/internal/race"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// referenceKNN is the pre-heap implementation (materialize every candidate,
// full sort by (distance, index)) kept as the behavioral oracle for the
// bounded-heap rewrite.
func referenceKNN(x *Matrix, query []float64, k int, m Metric, exclude map[int]bool) []int {
	type cand struct {
		idx  int
		dist float64
	}
	cands := make([]cand, 0, x.Rows)
	for i := 0; i < x.Rows; i++ {
		if exclude[i] {
			continue
		}
		cands = append(cands, cand{i, distance(m, x.Row(i), query)})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	if k > len(cands) {
		k = len(cands)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// fuzzMatrix draws a rows×cols matrix whose values are quantized to a small
// grid so distance ties are common and the (distance, index) tie-break is
// actually exercised.
func fuzzMatrix(rng *xrand.RNG, rows, cols int, quantized bool) *Matrix {
	x := NewMatrix(rows, cols)
	for i := range x.Data {
		v := rng.Float64()
		if quantized {
			v = math.Round(v*4) / 4
		}
		x.Data[i] = v
	}
	return x
}

// identityRows lists every row of an n-row matrix, the candidate list of a
// query over the whole matrix.
func identityRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

func TestKNNMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(41)
	var scratch NNScratch
	for trial := 0; trial < 60; trial++ {
		rows := 1 + rng.Intn(120)
		cols := 1 + rng.Intn(6)
		x := fuzzMatrix(rng, rows, cols, trial%2 == 0)
		q := x.Row(rng.Intn(rows))
		k := 1 + rng.Intn(rows+2) // sometimes k > available
		metric := Euclidean
		if trial%3 == 0 {
			metric = Manhattan
		}
		var exclude map[int]bool
		cands, self := identityRows(rows), -1
		switch trial % 4 {
		case 0: // nil map: every row, no self
		case 1: // single self-exclusion (the MCFS pattern)
			self = rng.Intn(rows)
			exclude = map[int]bool{self: true}
		case 2: // false-valued entry must not exclude; the rows come in
			// reverse order, so equal distances arrive in falling index order
			exclude = map[int]bool{rng.Intn(rows): false}
			slices.Reverse(cands)
		default: // multi-row exclusion: a row list without them, and a self
			// that is not in the list
			self = rng.Intn(rows)
			exclude = map[int]bool{self: true, rng.Intn(rows): true, rng.Intn(rows): true}
			cands = cands[:0]
			for i := 0; i < rows; i++ {
				if !exclude[i] {
					cands = append(cands, i)
				}
			}
		}
		want := referenceKNN(x, q, k, metric, exclude)
		got := KNN(x, q, cands, k, metric, self, &scratch, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (rows=%d k=%d excl=%v): KNN = %v, want %v", trial, rows, k, exclude, got, want)
		}
	}
}

func TestKNNWithinMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(43)
	var scratch NNScratch
	var out []int
	for trial := 0; trial < 60; trial++ {
		rows := 2 + rng.Intn(100)
		x := fuzzMatrix(rng, rows, 3, trial%2 == 0)
		// Candidate subset in increasing index order, as byClass produces.
		var cands []int
		for i := 0; i < rows; i++ {
			if rng.Intn(2) == 0 {
				cands = append(cands, i)
			}
		}
		self := rng.Intn(rows)
		k := 1 + rng.Intn(12)
		q := x.Row(self)
		// Oracle: restrict the reference to the candidate set via exclusion.
		excl := map[int]bool{self: true}
		inCands := make(map[int]bool, len(cands))
		for _, c := range cands {
			inCands[c] = true
		}
		for i := 0; i < rows; i++ {
			if !inCands[i] {
				excl[i] = true
			}
		}
		want := referenceKNN(x, q, k, Manhattan, excl)
		out = KNN(x, q, cands, k, Manhattan, self, &scratch, out)
		if len(out) != len(want) || (len(want) > 0 && !reflect.DeepEqual(out, want)) {
			t.Fatalf("trial %d: KNN = %v, want %v", trial, out, want)
		}
	}
}

// TestKNNSelfSteadyStateAllocFree pins that a self-excluding query over
// every row (the MCFS pattern) allocates nothing once scratch and out are
// warm.
func TestKNNSelfSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	rng := xrand.New(5)
	x := fuzzMatrix(rng, 300, 8, false)
	all := identityRows(x.Rows)
	var scratch NNScratch
	out := make([]int, 0, 16)
	q := x.Row(7)
	out = KNN(x, q, all, 11, Euclidean, 7, &scratch, out) // warm the scratch
	allocs := testing.AllocsPerRun(50, func() {
		out = KNN(x, q, all, 11, Euclidean, 7, &scratch, out)
	})
	if allocs != 0 {
		t.Fatalf("KNN steady state allocates %.1f objects per query, want 0", allocs)
	}
}

func BenchmarkKNN(b *testing.B) {
	rng := xrand.New(3)
	x := fuzzMatrix(rng, 1000, 10, false)
	q := x.Row(0)
	b.Run("heap", func(b *testing.B) {
		all := identityRows(x.Rows)
		var scratch NNScratch
		var out []int
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = KNN(x, q, all, 11, Euclidean, 0, &scratch, out)
		}
	})
	b.Run("reference-sort", func(b *testing.B) {
		excl := map[int]bool{0: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			referenceKNN(x, q, 11, Euclidean, excl)
		}
	})
}
