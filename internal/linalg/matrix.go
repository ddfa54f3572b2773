// Package linalg provides the small dense linear-algebra substrate used by
// the DFS system: a row-major matrix type, vector helpers, an in-place
// symmetric eigensolver (cyclic Jacobi) for the MCFS spectral embedding, a
// bounded-heap k-nearest-neighbour search for ReliefF and the MCFS graph,
// and lasso regression via coordinate descent.
//
// Everything is written against the Go standard library only and sized for
// the workloads of the benchmark (matrices up to a few thousand rows and a
// few hundred columns).
package linalg

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. It panics on
// ragged input.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns the i-th row as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of the j-th column.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SelectCols returns a new matrix containing only the given columns, in the
// given order. Indices may repeat.
func (m *Matrix) SelectCols(cols []int) *Matrix {
	return m.SelectColsInto(&Matrix{}, cols)
}

// SelectColsInto is SelectCols writing into dst, whose storage it reuses
// when large enough; it returns dst.
func (m *Matrix) SelectColsInto(dst *Matrix, cols []int) *Matrix {
	n := m.Rows * len(cols)
	if cap(dst.Data) < n {
		dst.Data = make([]float64, n)
	}
	dst.Rows, dst.Cols, dst.Data = m.Rows, len(cols), dst.Data[:n]
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		out := dst.Row(i)
		for k, j := range cols {
			out[k] = src[j]
		}
	}
	return dst
}

// SelectRows returns a new matrix containing only the given rows, in order.
func (m *Matrix) SelectRows(rows []int) *Matrix {
	out := NewMatrix(len(rows), m.Cols)
	for k, i := range rows {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// MulVec computes y = M·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dim mismatch %d != %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = Dot(m.Row(i), x)
	}
	return y
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Dot returns the inner product of a and b; it panics on length mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: SqDist length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// L1Dist returns the Manhattan distance between a and b.
func L1Dist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: L1Dist length mismatch")
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for empty input.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 for fewer than two
// elements.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	s := 0.0
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}
