package ranking

import (
	"fmt"
	"math"
	"runtime"
	"sort"
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
	k := 10
	m := 100
	if m > n {
		m = n
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
// KNN with fresh scratch, interleaved symmetrization) feeding a separate
// Laplacian matrix, the frozen copy of the pre-rewrite eigensolver, and the
// same lasso pipeline.
func referenceMCFSRank(m MCFS, train *dataset.Dataset, rng *xrand.RNG) ([]float64, error) {
	n, p := train.Rows(), train.Features()
	kDims := 4
	kNN := 5
	rowCap := 200
	alpha := 0.01
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
	_, vecs, err := referenceEigenSym(lap)
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

// referenceEigenSym is the pre-rewrite linalg.EigenSym, kept verbatim so
// that referenceMCFSRank does not check the in-place solver against itself:
// a cyclic Jacobi on a clone of a that accumulates rotations into the
// columns of V and returns all n eigenpairs, columns sorted by ascending
// eigenvalue.
func referenceEigenSym(a *linalg.Matrix) (values []float64, vectors *linalg.Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("reference EigenSym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	const symTol = 1e-8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > symTol*(1+math.Abs(a.At(i, j))) {
				return nil, nil, fmt.Errorf("reference EigenSym input not symmetric at (%d,%d)", i, j)
			}
		}
	}

	w := a.Clone()
	v := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		if off < 1e-22*float64(n*n) {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Rotate rows/columns p and q of w.
				for k := 0; k < n; k++ {
					akp, akq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*akp-s*akq)
					w.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*apk-s*aqk)
					w.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate the rotation into the eigenvector matrix.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}

	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
	}
	// Sort ascending and permute eigenvector columns to match.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] < values[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := linalg.NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
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

// mcfsBenchData is the input of BenchmarkMCFSRank and
// TestMCFSRankAllocCeiling: 260 rows, which MCFS samples down to its
// 200-row cap.
func mcfsBenchData() *dataset.Dataset { return fuzzDataset(xrand.New(37), 260, 10, false) }

// TestMCFSRankAllocCeiling is the allocation tripwire of the two-buffer
// spectral embedding. One Rank on n = 200 sampled rows may allocate the
// affinity matrix the Laplacian overwrites and the solver's Vᵀ, 2·n²·8
// bytes, plus 96 KiB for the row sample, the neighbour scratch, the
// eigenvectors it returns and the lasso's vectors. Five n×n matrices, as
// before the solver worked in place, come to about 1.69 MB.
func TestMCFSRankAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	const n, runs = 200, 3
	d := mcfsBenchData()
	m := MCFS{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := m.Rank(d, xrand.New(5)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRank := (after.TotalAlloc - before.TotalAlloc) / runs
	if ceiling := uint64(2*n*n*8 + 96<<10); perRank > ceiling {
		t.Fatalf("MCFS.Rank allocates %d bytes, ceiling %d", perRank, ceiling)
	}
}

func BenchmarkMCFSRank(b *testing.B) {
	d := mcfsBenchData()
	m := MCFS{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Rank(d, xrand.New(5)); err != nil {
			b.Fatal(err)
		}
	}
}
