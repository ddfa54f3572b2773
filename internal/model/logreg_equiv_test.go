package model

import (
	"math"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/parallel"
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
	for epoch := 0; epoch < m.Epochs; epoch++ {
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
		lr := m.LearningRate
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
		got.Workers = trial % 3
		if err := got.Fit(d); err != nil {
			t.Fatal(err)
		}

		exact := parallel.NumChunks(rows) == 1
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

// TestLogRegFitBitIdenticalAcrossWorkers pins the worker-knob contract: the
// chunk geometry and merge order depend only on the row count, so training
// is bit-identical at every worker count.
func TestLogRegFitBitIdenticalAcrossWorkers(t *testing.T) {
	d := fuzzBinary(xrand.New(59), 700, 9) // well above one chunk

	want := NewLogReg(1)
	want.Workers = 1
	if err := want.Fit(d); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 0} {
		got := NewLogReg(1)
		got.Workers = workers
		if err := got.Fit(d); err != nil {
			t.Fatal(err)
		}
		for j := range want.w {
			if math.Float64bits(got.w[j]) != math.Float64bits(want.w[j]) {
				t.Fatalf("workers=%d w[%d]: %v != %v (not bit-identical)", workers, j, got.w[j], want.w[j])
			}
		}
		if math.Float64bits(got.b) != math.Float64bits(want.b) {
			t.Fatalf("workers=%d intercept: %v != %v", workers, got.b, want.b)
		}
	}
}

func TestLogRegCloneKeepsWorkers(t *testing.T) {
	m := NewLogReg(2)
	m.Workers = 5
	clone, ok := m.Clone().(*LogReg)
	if !ok || clone.Workers != 5 {
		t.Fatalf("Clone dropped Workers: %+v", clone)
	}
}

// TestLogRegFitAllocCeiling is the alloc tripwire for the training loop:
// allocations must not scale with epochs (the per-epoch state is the weight
// vector, the partial buffer, and the merged gradient, all hoisted).
func TestLogRegFitAllocCeiling(t *testing.T) {
	if parallel.RaceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := fuzzBinary(xrand.New(61), 300, 12)
	allocs := testing.AllocsPerRun(5, func() {
		m := NewLogReg(1)
		if err := m.Fit(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("LogReg.Fit allocates %.0f objects, ceiling 10", allocs)
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
