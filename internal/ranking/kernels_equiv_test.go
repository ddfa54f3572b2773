package ranking

import (
	"math"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/race"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// referenceReliefFRank is the pre-rewrite serial implementation — per-seed
// candidate slices with an O(n·k) partial selection sort — kept verbatim as
// the behavioral oracle for the heap-based two-phase rewrite.
func referenceReliefFRank(r ReliefF, train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	k := r.Neighbors
	if k <= 0 {
		k = 10
	}
	m := r.Samples
	if m <= 0 || m > n {
		m = n
		if m > 100 {
			m = 100
		}
	}
	byClass := [2][]int{}
	for i, y := range train.Y {
		byClass[y] = append(byClass[y], i)
	}
	if len(byClass[0]) == 0 || len(byClass[1]) == 0 {
		return make([]float64, p), nil
	}
	w := make([]float64, p)
	seeds := rng.Sample(n, m)
	for _, i := range seeds {
		row := train.X.Row(i)
		y := train.Y[i]
		hits := refNearestWithin(train, byClass[y], i, row, k)
		misses := refNearestWithin(train, byClass[1-y], i, row, k)
		if len(hits) == 0 || len(misses) == 0 {
			continue
		}
		for j := 0; j < p; j++ {
			var hitDiff, missDiff float64
			for _, h := range hits {
				hitDiff += absDiff(row[j], train.X.At(h, j))
			}
			for _, ms := range misses {
				missDiff += absDiff(row[j], train.X.At(ms, j))
			}
			w[j] += missDiff/float64(len(misses)) - hitDiff/float64(len(hits))
		}
	}
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

func refNearestWithin(d *dataset.Dataset, candidates []int, self int, row []float64, k int) []int {
	type cand struct {
		idx  int
		dist float64
	}
	cs := make([]cand, 0, len(candidates))
	for _, i := range candidates {
		if i == self {
			continue
		}
		cs = append(cs, cand{i, linalg.L1Dist(row, d.X.Row(i))})
	}
	if len(cs) == 0 {
		return nil
	}
	if k > len(cs) {
		k = len(cs)
	}
	out := make([]int, 0, k)
	used := make([]bool, len(cs))
	for sel := 0; sel < k; sel++ {
		best := -1
		for i, c := range cs {
			if used[i] {
				continue
			}
			if best < 0 || c.dist < cs[best].dist || (c.dist == cs[best].dist && c.idx < cs[best].idx) {
				best = i
			}
		}
		used[best] = true
		out = append(out, cs[best].idx)
	}
	return out
}

// referenceMCFSRank is the pre-rewrite serial affinity construction (per-row
// KNN with fresh scratch, interleaved symmetrization) feeding the same Laplacian,
// eigendecomposition, and lasso pipeline.
func referenceMCFSRank(m MCFS, train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	kDims := m.EmbeddingDims
	if kDims <= 0 {
		kDims = 4
	}
	kNN := m.GraphNeighbors
	if kNN <= 0 {
		kNN = 5
	}
	rowCap := m.SampleRows
	if rowCap <= 0 {
		rowCap = 200
	}
	alpha := m.Alpha
	if alpha == 0 {
		alpha = 0.01
	}
	x := train.X
	if n > rowCap {
		rows := rng.Sample(n, rowCap)
		x = x.SelectRows(rows)
		n = rowCap
	}
	if kDims >= n {
		kDims = n - 1
	}
	if kDims < 1 {
		kDims = 1
	}
	w := linalg.NewMatrix(n, n)
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
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	for i := 0; i < n; i++ {
		var scratch linalg.NNScratch
		nn := linalg.KNN(x, x.Row(i), all, kNN+1, linalg.Euclidean, i, &scratch, nil)
		for _, l := range nn {
			a := math.Exp(-linalg.SqDist(x.Row(i), x.Row(l)) / sigma2)
			if a > w.At(i, l) {
				w.Set(i, l, a)
				w.Set(l, i, a)
			}
		}
	}
	dInvSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		deg := 0.0
		for l := 0; l < n; l++ {
			deg += w.At(i, l)
		}
		if deg > 0 {
			dInvSqrt[i] = 1 / math.Sqrt(deg)
		}
	}
	lap := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for l := 0; l < n; l++ {
			v := -dInvSqrt[i] * w.At(i, l) * dInvSqrt[l]
			if i == l {
				v += 1
			}
			lap.Set(i, l, v)
		}
	}
	_, vecs, err := linalg.EigenSym(lap)
	if err != nil {
		return nil, &EmbeddingError{Err: err}
	}
	scores := make([]float64, p)
	for k := 1; k <= kDims && k < n; k++ {
		target := vecs.Col(k)
		coef := linalg.LassoCD(x, target, alpha, 200, 1e-7)
		for j, c := range coef {
			if a := math.Abs(c); a > scores[j] {
				scores[j] = a
			}
		}
	}
	return scores, nil
}

// fuzzDataset draws a binary-labeled dataset; quantized features make
// neighbour-distance ties common.
func fuzzDataset(rng *xrand.RNG, rows, cols int, quantized bool) *dataset.Dataset {
	x := linalg.NewMatrix(rows, cols)
	for i := range x.Data {
		v := rng.Float64()
		if quantized {
			v = math.Round(v*4) / 4
		}
		x.Data[i] = v
	}
	y := make([]int, rows)
	for i := range y {
		y[i] = rng.Intn(2)
	}
	return &dataset.Dataset{Name: "fuzz", X: x, Y: y, Sensitive: make([]int, rows)}
}

func TestReliefFMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 25; trial++ {
		rows := 2 + rng.Intn(180)
		cols := 1 + rng.Intn(8)
		d := fuzzDataset(rng, rows, cols, trial%2 == 0)
		seed := uint64(1000 + trial)
		want, err := referenceReliefFRank(ReliefF{}, d, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReliefF{}.Rank(d, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (rows=%d) feature %d: %v != %v",
					trial, rows, j, got[j], want[j])
			}
		}
	}
}

func TestMCFSMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(19)
	for trial := 0; trial < 8; trial++ {
		rows := 10 + rng.Intn(240) // sometimes above the 200-row sampling cap
		cols := 2 + rng.Intn(6)
		d := fuzzDataset(rng, rows, cols, trial%2 == 0)
		seed := uint64(2000 + trial)
		want, wantErr := referenceMCFSRank(MCFS{}, d, xrand.New(seed))
		got, gotErr := MCFS{}.Rank(d, xrand.New(seed))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error mismatch: %v vs %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d (rows=%d) feature %d: %v != %v",
					trial, rows, j, got[j], want[j])
			}
		}
	}
}

// TestReliefFRankAllocCeiling is the alloc-regression tripwire for the
// scratch-reuse rewrite: the whole ranking — 100 seeds × two neighbour
// queries each — must stay within a small fixed allocation budget instead
// of the per-seed candidate slices of the old implementation.
func TestReliefFRankAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := fuzzDataset(xrand.New(29), 400, 10, false)
	r := ReliefF{}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := r.Rank(d, xrand.New(3)); err != nil {
			t.Fatal(err)
		}
	})
	// Seed-implementation cost was ~4 slices per seed (~800 total); the
	// rewrite needs 29 (weights, seeds, the growing class index lists, and
	// the accumulators and neighbour scratch shared by all seeds).
	if allocs > 29 {
		t.Fatalf("ReliefF.Rank allocates %.0f objects, ceiling 29", allocs)
	}
}

func BenchmarkReliefFRank(b *testing.B) {
	d := fuzzDataset(xrand.New(31), 600, 12, false)
	b.Run("heap", func(b *testing.B) {
		r := ReliefF{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.Rank(d, xrand.New(5)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference-selectionsort", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceReliefFRank(ReliefF{}, d, xrand.New(5)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkMCFSRank(b *testing.B) {
	d := fuzzDataset(xrand.New(37), 260, 10, false)
	m := MCFS{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Rank(d, xrand.New(5)); err != nil {
			b.Fatal(err)
		}
	}
}
