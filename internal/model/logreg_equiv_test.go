package model

import (
	"math"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/race"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// referenceLogRegFit is the pre-rewrite training loop — separate rawScore
// and gradient row walks, flat (unchunked) gradient accumulation — kept as
// the oracle for the fused chunk-reduced rewrite.
func referenceLogRegFit(m *LogReg, d *dataset.Dataset) {
	n, p := d.Rows(), d.Features()
	m.w = make([]float64, p)
	m.b = 0
	lambda := 0.0
	if m.C > 0 {
		lambda = 1 / (m.C * float64(n))
	}
	grad := make([]float64, p)
	for epoch := 0; epoch < 150; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		gb := 0.0
		for i := 0; i < n; i++ {
			row := d.X.Row(i)
			s := m.b
			for j, v := range row {
				s += m.w[j] * v
			}
			err := sigmoid(s) - float64(d.Y[i])
			for j, v := range row {
				grad[j] += err * v
			}
			gb += err
		}
		inv := 1 / float64(n)
		lr := 0.7
		shrink := 1 / (1 + lr*lambda)
		for j := range m.w {
			m.w[j] = (m.w[j] - lr*grad[j]*inv) * shrink
		}
		m.b -= lr * gb * inv
	}
	m.fitted = true
}

func fuzzBinary(rng *xrand.RNG, rows, cols int) *dataset.Dataset {
	x := linalg.NewMatrix(rows, cols)
	y := make([]int, rows)
	for i := 0; i < rows; i++ {
		y[i] = rng.Intn(2)
		for j := 0; j < cols; j++ {
			v := rng.Float64()
			if y[i] == 1 && j == 0 {
				v = v*0.5 + 0.5
			}
			x.Set(i, j, v)
		}
	}
	// Guarantee both classes so Fit takes the gradient path.
	y[0], y[rows-1] = 0, 1
	return &dataset.Dataset{Name: "fuzz", X: x, Y: y, Sensitive: make([]int, rows)}
}

// TestLogRegFitMatchesReferenceFuzzed is the coefficient-equivalence test
// for the fused pass. Chunked summation reorders floating-point adds, so
// coefficients agree to tight tolerance in general — and bit-exactly when
// the data fits one chunk, where the fused pass accumulates in the exact
// row order of the reference.
func TestLogRegFitMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(53)
	for trial := 0; trial < 20; trial++ {
		rows := 2 + rng.Intn(400)
		cols := 1 + rng.Intn(10)
		d := fuzzBinary(rng, rows, cols)
		c := []float64{0.01, 1, 100}[trial%3]

		ref := NewLogReg(c)
		referenceLogRegFit(ref, d)
		got := NewLogReg(c)
		if err := got.Fit(d); err != nil {
			t.Fatal(err)
		}

		exact := numChunks(rows) == 1
		for j := range ref.w {
			diff := math.Abs(got.w[j] - ref.w[j])
			if exact && diff != 0 {
				t.Fatalf("trial %d (rows=%d, single chunk) w[%d]: %v != %v (want bit-exact)",
					trial, rows, j, got.w[j], ref.w[j])
			}
			if diff > 1e-9 {
				t.Fatalf("trial %d (rows=%d) w[%d]: |%v - %v| = %g exceeds 1e-9",
					trial, rows, j, got.w[j], ref.w[j], diff)
			}
		}
		if diff := math.Abs(got.b - ref.b); diff > 1e-9 || (exact && diff != 0) {
			t.Fatalf("trial %d: intercept %v != %v", trial, got.b, ref.b)
		}
	}
}

func TestNumChunksAndBounds(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 127, 128, 1000, 2048, 5000, 1 << 20} {
		nc := numChunks(n)
		if n == 0 {
			if nc != 0 {
				t.Fatalf("numChunks(0) = %d", nc)
			}
			continue
		}
		if nc < 1 || nc > maxChunks {
			t.Fatalf("numChunks(%d) = %d out of range", n, nc)
		}
		if n <= minChunkLen && nc != 1 {
			t.Fatalf("numChunks(%d) = %d, want 1 for small inputs", n, nc)
		}
		prev := 0
		for c := 0; c < nc; c++ {
			lo, hi := chunkBounds(n, c)
			if lo != prev {
				t.Fatalf("n=%d chunk %d: lo=%d, want %d (contiguous)", n, c, lo, prev)
			}
			if hi <= lo {
				t.Fatalf("n=%d chunk %d: empty range [%d,%d)", n, c, lo, hi)
			}
			prev = hi
		}
		if prev != n {
			t.Fatalf("n=%d: chunks cover [0,%d), want [0,%d)", n, prev, n)
		}
	}
}

// TestLogRegFitAllocCeiling is the alloc tripwire for the training loop:
// allocations must not scale with epochs or chunks (the state is the weight
// vector, the chunk partial, and the merged gradient, all hoisted).
func TestLogRegFitAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := fuzzBinary(xrand.New(61), 300, 12)
	allocs := testing.AllocsPerRun(5, func() {
		m := NewLogReg(1)
		if err := m.Fit(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("LogReg.Fit allocates %.0f objects, ceiling 3", allocs)
	}
}

func BenchmarkLogRegFit(b *testing.B) {
	d := fuzzBinary(xrand.New(67), 960, 20)
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewLogReg(1)
			if err := m.Fit(d); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference-twopass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m := NewLogReg(1)
			referenceLogRegFit(m, d)
		}
	})
}
