package linalg

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/xrand"
)

// referenceEigenSym is the pre-rewrite EigenSym, kept verbatim as the
// bit-identity oracle of the in-place solver: a cyclic Jacobi on a clone of
// a that accumulates rotations into the columns of V through At/Set and
// returns all n eigenpairs, the columns sorted by ascending eigenvalue.
func referenceEigenSym(a *Matrix) (values []float64, vectors *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("linalg: reference EigenSym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	const symTol = 1e-8
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > symTol*(1+math.Abs(a.At(i, j))) {
				return nil, nil, fmt.Errorf("linalg: reference EigenSym input not symmetric at (%d,%d)", i, j)
			}
		}
	}

	w := a.Clone()
	v := NewMatrix(n, n)
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
	sortedVecs := NewMatrix(n, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for r := 0; r < n; r++ {
			sortedVecs.Set(r, newCol, v.At(r, oldCol))
		}
	}
	return sortedVals, sortedVecs, nil
}

// randomSymmetric draws an n×n symmetric matrix of standard normal entries.
func randomSymmetric(rng *xrand.RNG, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.Norm()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

// knnLaplacian builds the normalized Laplacian of a heat-kernel 5-NN graph,
// as MCFS does, over n points in copies of one block of random points. A
// last column separates the copies by 100, so no edge crosses between them:
// the graph falls apart into one component per copy, the zero eigenvalue
// repeats, and whole copies repeat every eigenvalue of their block bit for
// bit, which exercises the order of tied eigenvalues.
func knnLaplacian(rng *xrand.RNG, n, copies int, quantized bool) *Matrix {
	const cols = 4
	block := (n + copies - 1) / copies
	base := fuzzMatrix(rng, block, cols-1, quantized)
	x := NewMatrix(n, cols)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		copy(row, base.Row(i%block))
		row[cols-1] = 100 * float64(i/block)
	}
	w := NewMatrix(n, n)
	rows := identityRows(n)
	var scratch NNScratch
	var nn []int
	for i := 0; i < n; i++ {
		nn = KNN(x, x.Row(i), rows, 5, Euclidean, i, &scratch, nn)
		for _, l := range nn {
			if a := math.Exp(-SqDist(x.Row(i), x.Row(l))); a > w.At(i, l) {
				w.Set(i, l, a)
				w.Set(l, i, a)
			}
		}
	}
	dInvSqrt := make([]float64, n)
	for i := 0; i < n; i++ {
		d := 0.0
		for _, a := range w.Row(i) {
			d += a
		}
		if d > 0 {
			dInvSqrt[i] = 1 / math.Sqrt(d)
		}
	}
	for i := 0; i < n; i++ {
		row := w.Row(i)
		for l, a := range row {
			row[l] = -dInvSqrt[i] * a * dInvSqrt[l]
		}
		row[i]++
	}
	return w
}

// TestEigenSymMatchesReferenceFuzzed checks the in-place solver against the
// pre-rewrite one bit for bit: every returned eigenvalue, and every
// component of its eigenvector, on random symmetric matrices and on kNN
// Laplacians of disconnected graphs at sizes 1–240, asking for all n
// eigenpairs or a random prefix of them.
func TestEigenSymMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(23)
	ties := 0
	check := func(label string, a *Matrix) {
		n := a.Rows
		k := n
		if rng.Intn(2) == 0 {
			k = rng.Intn(n + 1)
		}
		wantVals, wantVecs, err := referenceEigenSym(a)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		gotVals, gotVecs, err := EigenSym(a.Clone(), k)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(gotVals) != k || gotVecs.Rows != k || gotVecs.Cols != n {
			t.Fatalf("%s: got %d values and a %dx%d vector matrix, want %d and %dx%d",
				label, len(gotVals), gotVecs.Rows, gotVecs.Cols, k, k, n)
		}
		for r := 0; r < k; r++ {
			if math.Float64bits(gotVals[r]) != math.Float64bits(wantVals[r]) {
				t.Fatalf("%s: eigenvalue %d: %v != %v", label, r, gotVals[r], wantVals[r])
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(gotVecs.At(r, i)) != math.Float64bits(wantVecs.At(i, r)) {
					t.Fatalf("%s: eigenvector %d component %d: %v != %v",
						label, r, i, gotVecs.At(r, i), wantVecs.At(i, r))
				}
			}
		}
		for r := 1; r < n; r++ {
			if wantVals[r] == wantVals[r-1] {
				ties++
			}
		}
	}
	for _, n := range []int{1, 2, 3, 4, 6, 9, 17, 32, 57, 100, 143, 200, 240} {
		check(fmt.Sprintf("random n=%d", n), randomSymmetric(rng, n))
		copies := 1 + rng.Intn(4)
		check(fmt.Sprintf("laplacian n=%d copies=%d", n, copies), knnLaplacian(rng, n, copies, n%2 == 0))
	}
	if ties == 0 {
		t.Fatal("no tied eigenvalues in the corpus: the tie order went unchecked")
	}
}

// TestEigenSymRejectsNonFinite: a NaN passes a symmetry test (|NaN−NaN| >
// tol is false) and would hold the off-diagonal mass above tolerance for
// every sweep, so non-finite entries must fail before any rotation, leaving
// the input as it was.
func TestEigenSymRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, at := range [][2]int{{7, 7}, {3, 150}} {
			a := knnLaplacian(xrand.New(5), 200, 2, false)
			a.Set(at[0], at[1], bad)
			a.Set(at[1], at[0], bad)
			before := a.Clone()
			_, _, err := EigenSym(a, 5)
			if err == nil || !strings.Contains(err.Error(), "not finite") {
				t.Fatalf("%v at %v: err = %v, want a non-finite input error", bad, at, err)
			}
			for i := range a.Data {
				if math.Float64bits(a.Data[i]) != math.Float64bits(before.Data[i]) {
					t.Fatalf("%v at %v: input changed at %d before the error", bad, at, i)
				}
			}
		}
	}
}

// TestEigenSymReportsNonConvergence: beside a diagonal gap of 1e200 the
// rotation angle of a 1e-6 off-diagonal entry underflows to zero, so no
// sweep reduces the entry, and its square stays above the absolute
// tolerance; the solver must say so rather than return.
func TestEigenSymReportsNonConvergence(t *testing.T) {
	a := FromRows([][]float64{{0, 1e-6}, {1e-6, 1e200}})
	if _, _, err := EigenSym(a, 2); err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("err = %v, want a convergence error", err)
	}
}

func TestEigenSymRejectsOutOfRangeK(t *testing.T) {
	for _, k := range []int{-1, 3} {
		if _, _, err := EigenSym(NewMatrix(2, 2), k); err == nil {
			t.Fatalf("k=%d on a 2x2 matrix: no error", k)
		}
	}
}

// BenchmarkEigenSymLaplacian200 times the decomposition MCFS runs: the
// bottom five eigenpairs of a 200-node kNN Laplacian. Each iteration first
// copies the Laplacian over the work matrix the solver rotates; the copy is
// 40,000 floats beside O(n³) work per sweep.
func BenchmarkEigenSymLaplacian200(b *testing.B) {
	lap := knnLaplacian(xrand.New(8), 200, 1, false)
	work := NewMatrix(lap.Rows, lap.Cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, lap.Data)
		if _, _, err := EigenSym(work, 5); err != nil {
			b.Fatal(err)
		}
	}
}
