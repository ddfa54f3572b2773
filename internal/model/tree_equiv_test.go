package model

import (
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/race"
	"github.com/declarative-fs/dfs/internal/synth"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// referenceBestSplit is the split search before the one-sweep rewrite: per
// feature a sorted copy of the node's values for the quantile cuts, then for
// every cut a pass over the node's rows in row order summing per-row weights.
// It is the oracle for bestSplit.
func referenceBestSplit(m *Tree, d *dataset.Dataset, w []float64, rows []int, w0, w1 float64) (feat int, thr, gain float64) {
	parentGini := gini(w0, w1)
	total := w0 + w1
	feat = -1
	vals := make([]float64, 0, len(rows))
	for j := 0; j < m.nFeatures; j++ {
		vals = vals[:0]
		for _, i := range rows {
			vals = append(vals, d.X.At(i, j))
		}
		for _, t := range referenceThresholdCandidates(vals, maxThresholds) {
			var l0, l1 float64
			for k, i := range rows {
				if vals[k] <= t {
					if d.Y[i] == 1 {
						l1 += w[i]
					} else {
						l0 += w[i]
					}
				}
			}
			r0, r1 := w0-l0, w1-l1
			lTot, rTot := l0+l1, r0+r1
			if lTot < m.MinLeaf || rTot < m.MinLeaf {
				continue
			}
			g := parentGini - (lTot*gini(l0, l1)+rTot*gini(r0, r1))/total
			if g > gain {
				feat, thr, gain = j, t, g
			}
		}
	}
	return feat, thr, gain
}

// referenceThresholdCandidates is the pre-rewrite quantile-cut helper.
func referenceThresholdCandidates(vals []float64, maxThr int) []float64 {
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) < 2 {
		return nil
	}
	if len(uniq)-1 <= maxThr {
		out := make([]float64, 0, len(uniq)-1)
		for i := 0; i+1 < len(uniq); i++ {
			out = append(out, (uniq[i]+uniq[i+1])/2)
		}
		return out
	}
	out := make([]float64, 0, maxThr)
	for k := 1; k <= maxThr; k++ {
		idx := len(uniq) * k / (maxThr + 1)
		if idx >= len(uniq)-1 {
			idx = len(uniq) - 2
		}
		t := (uniq[idx] + uniq[idx+1]) / 2
		if len(out) == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// TestBestSplitMatchesReferenceFuzzed checks the sweep against the
// row-order reference bit for bit: feature, threshold and gain, on node row
// sets in any order, with heavy ties (few distinct levels), with more
// distinct values than the cut cap, and with non-integer class weights,
// whose sums round, so the equal-terms argument is what keeps them equal.
func TestBestSplitMatchesReferenceFuzzed(t *testing.T) {
	rng := xrand.New(97)
	levels := []int{1, 2, 3, 7, 25, 26, 200, 0} // 0: continuous values
	weights := [][2]float64{{1, 1}, {0.37, 2.9}, {1.0 / 3, 1.0 / 7}, {5, 0.1}}
	s := new(splitScratch)
	for trial := 0; trial < 400; trial++ {
		n := 2 + rng.Intn(200)
		p := 1 + rng.Intn(6)
		lv := levels[rng.Intn(len(levels))]
		pos := 0.1 + 0.8*rng.Float64()
		x := linalg.NewMatrix(n, p)
		y := make([]int, n)
		for i := 0; i < n; i++ {
			if rng.Float64() < pos {
				y[i] = 1
			}
			for j := 0; j < p; j++ {
				v := rng.Float64()
				if lv > 0 {
					v = float64(rng.Intn(lv)) / float64(lv)
				}
				x.Set(i, j, v)
			}
		}
		d := &dataset.Dataset{Name: "fuzz", X: x, Y: y, Sensitive: make([]int, n)}
		cw := weights[rng.Intn(len(weights))]
		w := make([]float64, n)
		for i := range w {
			w[i] = cw[y[i]]
		}
		// A node's rows: a random subset in random order, repeats allowed
		// (a bootstrap sample).
		rows := make([]int, 1+rng.Intn(n))
		for k := range rows {
			rows[k] = rng.Intn(n)
		}
		var w0, w1 float64
		for _, i := range rows {
			if y[i] == 1 {
				w1 += w[i]
			} else {
				w0 += w[i]
			}
		}
		m := &Tree{MinLeaf: []float64{0, 1, 2, 5}[rng.Intn(4)], nFeatures: p}
		wf, wt, wg := referenceBestSplit(m, d, w, rows, w0, w1)
		gf, gt, gg := m.bestSplit(d, cw, s, rows, w0, w1)
		if gf != wf || math.Float64bits(gt) != math.Float64bits(wt) || math.Float64bits(gg) != math.Float64bits(wg) {
			t.Fatalf("trial %d (n=%d p=%d levels=%d weights=%v): split (%d, %v, %v), reference (%d, %v, %v)",
				trial, n, p, lv, cw, gf, gt, gg, wf, wt, wg)
		}
	}
}

// germanCreditTrain is the training split of the German Credit profile as a
// scenario splits it (3:1:1, split stream 0x5eed): the data of pool_cold's
// CART slot.
func germanCreditTrain(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	p, err := synth.ByName("German Credit")
	if err != nil {
		tb.Fatal(err)
	}
	d, err := synth.GenerateDataset(&p, 1)
	if err != nil {
		tb.Fatal(err)
	}
	split, err := dataset.StratifiedSplit(d, xrand.NewStream(1, 0x5eed))
	if err != nil {
		tb.Fatal(err)
	}
	return split.Train
}

// TestTreeFitAllocCeiling is the alloc tripwire for CART training: with the
// split search's buffers pooled, a fit allocates only the fitted tree's node
// list and importances.
func TestTreeFitAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := germanCreditTrain(t)
	allocs := testing.AllocsPerRun(5, func() {
		if err := NewTree(7).Fit(d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("Tree.Fit allocates %.0f objects, ceiling 2", allocs)
	}
}

// TestTreeFitConcurrentMatchesSerial fits the DT grid from several
// goroutines at once, as a pool's strategy runs do, and checks every tree
// against a serial fit: fits that share the scratch pool share no buffer.
func TestTreeFitConcurrentMatchesSerial(t *testing.T) {
	d := germanCreditTrain(t)
	grid := DefaultGrid(KindDT)
	want := make([]treeDoc, len(grid))
	for k, spec := range grid {
		tr := NewTree(spec.MaxDepth)
		if err := tr.Fit(d); err != nil {
			t.Fatal(err)
		}
		want[k] = flattenTree(tr)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, spec := range grid {
				tr := NewTree(spec.MaxDepth)
				if err := tr.Fit(d); err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(flattenTree(tr), want[k]) {
					t.Errorf("depth %d: a concurrent fit differs from the serial one", spec.MaxDepth)
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkTreeFitGrid fits the DT hyperparameter grid (depths 1–7), the
// way one HPO subset evaluation trains CART, on German Credit's training
// split.
func BenchmarkTreeFitGrid(b *testing.B) {
	d := germanCreditTrain(b)
	grid := DefaultGrid(KindDT)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, spec := range grid {
			if err := NewTree(spec.MaxDepth).Fit(d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
