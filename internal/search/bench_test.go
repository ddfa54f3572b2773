package search

import (
	"testing"

	"github.com/declarative-fs/dfs/internal/xrand"
)

// benchValue scores a mask by its Hamming distance to a fixed 5-of-16
// target plus a hashed quarter-step, so a search sees a gradient and ties.
func benchValue(mask []bool) float64 {
	v := hashedValue(7, 4, mask) / 4
	for j, on := range mask {
		if on != (j%3 == 0 && j < 15) { // target {0, 3, 6, 9, 12}
			v++
		}
	}
	return v
}

// BenchmarkSequential runs each sequential driver to its end on a 16-feature
// objective that caches and caps visits like the evaluator (visitCap is
// 500,000 there), with no stop and no evaluation cap.
func BenchmarkSequential(b *testing.B) {
	for _, d := range sequentialDrivers {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := &cachingObjective{p: 16, value: benchValue, visitCap: 500000}
				if err := d.run(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProposeMask times one TPE(NR) proposal over a full
// proposalWindow of 40-feature trials.
func BenchmarkProposeMask(b *testing.B) {
	const p = 40
	gen := xrand.NewStream(40, 0x9e)
	history := make([]trialMask, proposalWindow)
	for i := range history {
		mask := make([]bool, p)
		for j := range mask {
			mask[j] = gen.Bool(0.4)
		}
		history[i] = trialMask{mask, float64(gen.Intn(50))}
	}
	totals := windowTotals(history, p)
	rng := xrand.NewStream(42, 0x7e57)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		proposeMask(history, totals, p, rng)
	}
}
