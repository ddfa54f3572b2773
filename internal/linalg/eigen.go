package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym returns the k smallest eigenpairs of the symmetric n×n matrix a
// by the cyclic Jacobi method, rotating a in place: on return a holds the
// nearly diagonal rotated matrix, not the input. The eigenvalues come in
// ascending order and the eigenvectors as the rows of a k×n matrix, row i
// belonging to values[i]. The order is that of one sort over all n
// eigenvalues, so tied eigenvalues keep the order of a full decomposition.
//
// It returns an error before any rotation for a non-square matrix, k outside
// [0, n], a NaN or ±Inf entry, or an asymmetric pair, and an error when 64
// sweeps leave the off-diagonal mass above its tolerance.
//
// The solver works in two n×n buffers: a, and Vᵀ, the product of the
// rotations kept row-major so that each eigenvector is a contiguous row. A
// rotation updates two columns of a (strided), then two rows of a and of Vᵀ
// (contiguous). Jacobi is O(n³) per sweep but unconditionally stable and
// dependency-free, which is all the MCFS spectral embedding needs (graphs
// of at most a few hundred nodes).
func EigenSym(a *Matrix, k int) (values []float64, vectors *Matrix, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("linalg: EigenSym needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if k < 0 || k > n {
		return nil, nil, fmt.Errorf("linalg: EigenSym asked for %d eigenpairs of a %dx%d matrix", k, n, n)
	}
	w := a.Data
	const symTol = 1e-8
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			aij, aji := w[i*n+j], w[j*n+i]
			if !finite(aij) || !finite(aji) {
				return nil, nil, fmt.Errorf("linalg: EigenSym input not finite at (%d,%d)", i, j)
			}
			if math.Abs(aij-aji) > symTol*(1+math.Abs(aij)) {
				return nil, nil, fmt.Errorf("linalg: EigenSym input not symmetric at (%d,%d)", i, j)
			}
		}
	}

	vt := NewMatrix(n, n)
	v := vt.Data
	for i := 0; i < n; i++ {
		v[i*n+i] = 1
	}

	const maxSweeps = 64
	for sweep := 0; ; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for _, aij := range w[i*n+i+1 : (i+1)*n] {
				off += aij * aij
			}
		}
		// off == 0 also covers n == 0, where the tolerance is 0 too.
		if off == 0 || off < 1e-22*float64(n*n) {
			break
		}
		if sweep == maxSweeps {
			return nil, nil, fmt.Errorf("linalg: EigenSym did not converge in %d sweeps (off-diagonal mass %g)", maxSweeps, off)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w[p*n+q]
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w[p*n+p], w[q*n+q]
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c

				// Rotate columns p and q of a, then rows p and q of a, and
				// accumulate the rotation into rows p and q of Vᵀ.
				for kp := p; kp < len(w); kp += n {
					kq := kp + q - p
					akp, akq := w[kp], w[kq]
					w[kp] = c*akp - s*akq
					w[kq] = s*akp + c*akq
				}
				rotate(w[p*n:(p+1)*n], w[q*n:(q+1)*n], c, s)
				rotate(v[p*n:(p+1)*n], v[q*n:(q+1)*n], c, s)
			}
		}
	}

	all := make([]float64, n)
	for i := range all {
		all[i] = w[i*n+i]
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return all[idx[i]] < all[idx[j]] })
	values = make([]float64, k)
	vectors = NewMatrix(k, n)
	for r, i := range idx[:k] {
		values[r] = all[i]
		copy(vectors.Row(r), vt.Row(i))
	}
	return values, vectors, nil
}

// rotate applies the plane rotation (c, s) to the rows x and y in place:
// x, y = c·x − s·y, s·x + c·y.
func rotate(x, y []float64, c, s float64) {
	y = y[:len(x)]
	for k, xk := range x {
		yk := y[k]
		x[k] = c*xk - s*yk
		y[k] = s*xk + c*yk
	}
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// LassoCD solves min_w 1/(2n)·||y − Xw||² + alpha·||w||₁ by cyclic
// coordinate descent and returns the coefficient vector. X is n×p; columns
// are used as-is (callers should standardize when appropriate). maxIter
// bounds the number of full coordinate sweeps; tol is the convergence
// threshold on the maximum coefficient update.
func LassoCD(x *Matrix, y []float64, alpha float64, maxIter int, tol float64) []float64 {
	n, p := x.Rows, x.Cols
	if len(y) != n {
		panic(fmt.Sprintf("linalg: LassoCD target length %d != rows %d", len(y), n))
	}
	w := make([]float64, p)
	if n == 0 || p == 0 {
		return w
	}
	// Precompute per-column squared norms.
	colSq := make([]float64, p)
	for j := 0; j < p; j++ {
		for i := 0; i < n; i++ {
			v := x.At(i, j)
			colSq[j] += v * v
		}
	}
	resid := make([]float64, n)
	copy(resid, y)
	nf := float64(n)
	for iter := 0; iter < maxIter; iter++ {
		maxDelta := 0.0
		for j := 0; j < p; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = (1/n)·x_j·(resid + x_j·w_j)
			rho := 0.0
			for i := 0; i < n; i++ {
				rho += x.At(i, j) * resid[i]
			}
			rho = rho/nf + colSq[j]/nf*w[j]
			newW := softThreshold(rho, alpha) / (colSq[j] / nf)
			if d := newW - w[j]; d != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= d * x.At(i, j)
				}
				if ad := math.Abs(d); ad > maxDelta {
					maxDelta = ad
				}
				w[j] = newW
			}
		}
		if maxDelta < tol {
			break
		}
	}
	return w
}

func softThreshold(v, lambda float64) float64 {
	switch {
	case v > lambda:
		return v - lambda
	case v < -lambda:
		return v + lambda
	default:
		return 0
	}
}
