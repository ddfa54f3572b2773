package linalg

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/declarative-fs/dfs/internal/xrand"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if got := m.Row(1); got[2] != 5 {
		t.Fatal("Row view wrong")
	}
	if got := m.Col(2); got[1] != 5 || got[0] != 0 {
		t.Fatal("Col copy wrong")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSelectCols(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	s := m.SelectCols([]int{2, 0})
	want := FromRows([][]float64{{3, 1}, {6, 4}})
	for i := range s.Data {
		if s.Data[i] != want.Data[i] {
			t.Fatalf("SelectCols got %v", s.Data)
		}
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	s := m.SelectRows([]int{2, 0})
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatalf("SelectRows got %v", s.Data)
	}
}

func TestMulVecAndTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec got %v", y)
	}
	tr := m.T()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Fatal("transpose wrong")
	}
}

func TestVectorOps(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	y := []float64{1, 1}
	Axpy(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("Axpy wrong")
	}
	if !approx(Norm2([]float64{3, 4}), 5, 1e-12) {
		t.Fatal("Norm2 wrong")
	}
	if SqDist([]float64{0, 0}, []float64{3, 4}) != 25 {
		t.Fatal("SqDist wrong")
	}
	if L1Dist([]float64{0, 0}, []float64{3, -4}) != 7 {
		t.Fatal("L1Dist wrong")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if !approx(Variance([]float64{1, 2, 3}), 2.0/3.0, 1e-12) {
		t.Fatal("Variance wrong")
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate stats wrong")
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := FromRows([][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := EigenSym(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(vals[0], 1, 1e-9) || !approx(vals[1], 3, 1e-9) {
		t.Fatalf("eigenvalues %v", vals)
	}
	// Ascending order, eigenvector for 1 is e2.
	if !approx(math.Abs(vecs.At(0, 1)), 1, 1e-9) {
		t.Fatalf("eigenvector matrix %v", vecs.Data)
	}
}

func TestEigenSymKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a.Clone(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(vals[0], 1, 1e-9) || !approx(vals[1], 3, 1e-9) {
		t.Fatalf("eigenvalues %v", vals)
	}
	// Check A·v = λ·v for both pairs.
	for k := 0; k < 2; k++ {
		v := vecs.Row(k)
		av := a.MulVec(v)
		for i := range av {
			if !approx(av[i], vals[k]*v[i], 1e-8) {
				t.Fatalf("A·v != λ·v for pair %d", k)
			}
		}
	}
}

func TestEigenSymRandomReconstruction(t *testing.T) {
	const n = 12
	a := randomSymmetric(xrand.New(99), n)
	vals, vecs, err := EigenSym(a.Clone(), n)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct A = V·diag(vals)·Vᵀ.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += vecs.At(k, i) * vals[k] * vecs.At(k, j)
			}
			if !approx(s, a.At(i, j), 1e-7) {
				t.Fatalf("reconstruction off at (%d,%d): %v vs %v", i, j, s, a.At(i, j))
			}
		}
	}
	// Orthonormality of eigenvectors.
	for p := 0; p < n; p++ {
		for q := p; q < n; q++ {
			d := Dot(vecs.Row(p), vecs.Row(q))
			want := 0.0
			if p == q {
				want = 1
			}
			if !approx(d, want, 1e-7) {
				t.Fatalf("eigenvectors not orthonormal at (%d,%d): %v", p, q, d)
			}
		}
	}
	// Eigenvalues ascending.
	for i := 1; i < n; i++ {
		if vals[i] < vals[i-1] {
			t.Fatal("eigenvalues not sorted ascending")
		}
	}
}

func TestEigenSymRejectsNonSymmetric(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {0, 1}})
	if _, _, err := EigenSym(a, 2); err == nil {
		t.Fatal("expected error for non-symmetric input")
	}
	b := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if _, _, err := EigenSym(b, 2); err == nil {
		t.Fatal("expected error for non-square input")
	}
}

func TestLassoCDShrinksToZero(t *testing.T) {
	// With a huge alpha all coefficients must be zero.
	rng := xrand.New(5)
	x := NewMatrix(50, 4)
	y := make([]float64, 50)
	for i := range y {
		for j := 0; j < 4; j++ {
			x.Set(i, j, rng.Norm())
		}
		y[i] = rng.Norm()
	}
	w := LassoCD(x, y, 1e6, 100, 1e-8)
	for _, v := range w {
		if v != 0 {
			t.Fatalf("expected all-zero weights, got %v", w)
		}
	}
}

func TestLassoCDRecoversSparseSignal(t *testing.T) {
	rng := xrand.New(6)
	const n, p = 200, 6
	x := NewMatrix(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, rng.Norm())
		}
		// y depends only on features 0 and 3.
		y[i] = 2*x.At(i, 0) - 1.5*x.At(i, 3) + 0.01*rng.Norm()
	}
	w := LassoCD(x, y, 0.05, 500, 1e-9)
	if math.Abs(w[0]-2) > 0.15 || math.Abs(w[3]+1.5) > 0.15 {
		t.Fatalf("active coefficients off: %v", w)
	}
	for _, j := range []int{1, 2, 4, 5} {
		if math.Abs(w[j]) > 0.08 {
			t.Fatalf("inactive coefficient %d = %v not shrunk", j, w[j])
		}
	}
}

func TestLassoCDZeroAlphaIsLeastSquares(t *testing.T) {
	// Orthogonal design: exact recovery with alpha = 0.
	x := FromRows([][]float64{{1, 0}, {0, 1}, {1, 0}, {0, 1}})
	y := []float64{3, -2, 3, -2}
	w := LassoCD(x, y, 0, 200, 1e-12)
	if !approx(w[0], 3, 1e-6) || !approx(w[1], -2, 1e-6) {
		t.Fatalf("OLS solution wrong: %v", w)
	}
}

// knn is a whole-matrix query with fresh scratch and no self.
func knn(x *Matrix, query []float64, k int, m Metric) []int {
	var scratch NNScratch
	return KNN(x, query, identityRows(x.Rows), k, m, -1, &scratch, nil)
}

func TestKNNOrderingAndExclusion(t *testing.T) {
	x := FromRows([][]float64{{0}, {1}, {2}, {10}})
	got := knn(x, []float64{0.4}, 2, Euclidean)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("KNN order %v", got)
	}
	var scratch NNScratch
	got = KNN(x, []float64{0.4}, identityRows(x.Rows), 2, Euclidean, 0, &scratch, nil)
	if got[0] != 1 || got[1] != 2 {
		t.Fatalf("KNN with exclusion %v", got)
	}
}

func TestKNNManhattanVsEuclideanDiffer(t *testing.T) {
	// Point A at (0, 3): L1 = 3, L2² = 9. Point B at (2, 2): L1 = 4, L2² = 8.
	x := FromRows([][]float64{{0, 3}, {2, 2}})
	q := []float64{0, 0}
	if knn(x, q, 1, Manhattan)[0] != 0 {
		t.Fatal("Manhattan nearest should be row 0")
	}
	if knn(x, q, 1, Euclidean)[0] != 1 {
		t.Fatal("Euclidean nearest should be row 1")
	}
}

func TestKNNKLargerThanRows(t *testing.T) {
	x := FromRows([][]float64{{0}, {1}})
	got := knn(x, []float64{0}, 10, Euclidean)
	if len(got) != 2 {
		t.Fatalf("expected clamped result, got %v", got)
	}
}

func TestPropertyDotSymmetry(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := Dot(a[:], b[:]), Dot(b[:], a[:])
		if math.IsNaN(x) && math.IsNaN(y) {
			return true
		}
		return x == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySqDistNonNegative(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for _, v := range append(a[:], b[:]...) {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return SqDist(a[:], b[:]) >= 0 && SqDist(a[:], a[:]) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEigenSym32 times a full decomposition of a 32×32 random
// symmetric matrix; each iteration first copies it over the work matrix the
// solver rotates.
func BenchmarkEigenSym32(b *testing.B) {
	const n = 32
	a := randomSymmetric(xrand.New(4), n)
	work := NewMatrix(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work.Data, a.Data)
		if _, _, err := EigenSym(work, n); err != nil {
			b.Fatal(err)
		}
	}
}
