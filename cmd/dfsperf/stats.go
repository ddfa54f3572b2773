package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// p90 over 40 samples would rest on four values, so it is refused instead.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1). Any
// percentile above the median is refused unless at least minBeyond samples
// lie beyond it, so p90 needs n >= 100 and p99 needs n >= 1000. The median
// itself needs one sample.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	if q > 0.5 && float64(n)*(1-q) < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d of %d",
			100*q, minBeyond, int(float64(n)*(1-q)), n)
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q*float64(n))) - 1
	return s[max(rank, 0)], nil
}

// tail reports the highest of p99, p90 and p50 that percentile accepts for
// xs, with its name.
func tail(xs []float64) (float64, string) {
	for _, q := range []float64{0.99, 0.9} {
		if v, err := percentile(xs, q); err == nil {
			return v, fmt.Sprintf("p%g", 100*q)
		}
	}
	return median(xs), "p50"
}

// median is the middle sample (mean of the two middle ones for even n); 0
// for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so a spread computed here matches one computed there.
// A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
