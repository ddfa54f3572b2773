package model

import (
	"math"
	"slices"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// cutsOf returns the quantile cuts of vals, an unsorted sample with
// repeats.
func cutsOf(vals []float64) []float64 {
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return quantileCuts(nil, mergeDistinct(nil, sorted, nil))
}

func TestThresholdCandidatesSmallSets(t *testing.T) {
	// Fewer distinct values than the cap: midpoints between all neighbours.
	cands := cutsOf([]float64{0, 1, 0, 1})
	if len(cands) != 1 || cands[0] != 0.5 {
		t.Fatalf("binary feature candidates %v", cands)
	}
	// Constant features yield no candidates.
	if got := cutsOf([]float64{3, 3, 3}); got != nil {
		t.Fatalf("constant feature candidates %v", got)
	}
	// Many distinct values clamp to the cap.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i)
	}
	cands = cutsOf(vals)
	if len(cands) > maxThresholds {
		t.Fatalf("cap exceeded: %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i] <= cands[i-1] {
			t.Fatal("candidates not strictly increasing")
		}
	}
}

func TestTreeMtryRequiresRNG(t *testing.T) {
	d := separable(40, 1)
	tr := &Tree{MaxDepth: 2, MinLeaf: 1, Mtry: 1}
	if err := tr.Fit(d); err == nil {
		t.Fatal("Mtry without RNG accepted")
	}
	tr.Rng = xrand.New(1)
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
}

func TestTreeClassWeightsValidated(t *testing.T) {
	d := separable(40, 2)
	for _, cw := range [][2]float64{{-1, 1}, {1, math.NaN()}, {math.Inf(1), 1}} {
		if err := NewTree(2).FitWeighted(d, cw); err == nil {
			t.Fatalf("class weights %v accepted", cw)
		}
	}
}

func TestTreePureNodeBecomesLeaf(t *testing.T) {
	// All-one labels: the root must be a leaf predicting 1 regardless of
	// depth budget.
	n := 30
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	rng := xrand.New(3)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		x.Set(i, 1, rng.Float64())
		y[i] = 1
	}
	d := &dataset.Dataset{Name: "pure", X: x, Y: y, Sensitive: make([]int, n)}
	tr := NewTree(5)
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 0 || tr.LeafCount() != 1 {
		t.Fatalf("pure node split anyway: depth %d leaves %d", tr.Depth(), tr.LeafCount())
	}
	if tr.Predict([]float64{0.5, 0.5}) != 1 {
		t.Fatal("pure leaf predicts wrong class")
	}
}

func TestForestImportanceWidth(t *testing.T) {
	d := xorData(120, 4)
	f := NewForest(10, 5)
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	if got := len(f.FeatureImportances()); got != d.Features() {
		t.Fatalf("forest importances %d, want %d", got, d.Features())
	}
	var unfitted Forest
	if unfitted.FeatureImportances() != nil {
		t.Fatal("unfitted forest importances should be nil")
	}
}

func TestSVMGridSharesLRShape(t *testing.T) {
	g := DefaultGrid(KindSVM)
	if len(g) != 6 || g[0].Kind != KindSVM {
		t.Fatalf("SVM grid %+v", g)
	}
}

func TestMajorityLabel(t *testing.T) {
	if majorityLabel([]int{1, 1, 0}) != 1 {
		t.Fatal("majority 1 wrong")
	}
	if majorityLabel([]int{0, 0, 1}) != 0 {
		t.Fatal("majority 0 wrong")
	}
	if majorityLabel([]int{0, 1}) != 0 {
		t.Fatal("tie should default to 0")
	}
}
