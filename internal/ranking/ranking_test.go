package ranking

import (
	"math"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// signalData builds a dataset with a known structure:
//
//	feature 0: informative (separates the classes),
//	feature 1: noisy copy of feature 0 (redundant),
//	feature 2: uniform noise,
//	feature 3: constant.
func signalData(n int, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	x := linalg.NewMatrix(n, 4)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		var v float64
		if i%2 == 0 {
			y[i] = 1
			v = rng.Uniform(0.6, 1.0)
		} else {
			v = rng.Uniform(0.0, 0.4)
		}
		x.Set(i, 0, v)
		x.Set(i, 1, clamp01(v+rng.Normal(0, 0.05)))
		x.Set(i, 2, rng.Float64())
		x.Set(i, 3, 0.5)
	}
	return &dataset.Dataset{Name: "sig", X: x, Y: y, Sensitive: make([]int, n)}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func allRankers() []Ranker {
	return []Ranker{
		Variance{},
		Chi2{},
		Fisher{},
		MIM{},
		FCBF{},
		ReliefF{},
		MCFS{},
		&ModelImportance{Spec: model.Spec{Kind: model.KindLR}},
	}
}

func TestAllRankersReturnValidScores(t *testing.T) {
	d := signalData(200, 1)
	for _, r := range allRankers() {
		scores, err := r.Rank(d, xrand.New(2))
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if len(scores) != d.Features() {
			t.Fatalf("%s: %d scores for %d features", r.Name(), len(scores), d.Features())
		}
		for j, v := range scores {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: invalid score %v at %d", r.Name(), v, j)
			}
		}
	}
}

func TestSupervisedRankersFavourSignal(t *testing.T) {
	d := signalData(300, 3)
	// All supervised rankers must rank the informative feature above noise
	// and the constant.
	for _, r := range []Ranker{Chi2{}, Fisher{}, MIM{}, FCBF{}, ReliefF{},
		&ModelImportance{Spec: model.Spec{Kind: model.KindLR}}} {
		scores, err := r.Rank(d, xrand.New(4))
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if scores[0] <= scores[2] || scores[0] <= scores[3] {
			t.Errorf("%s: signal %v not above noise %v / constant %v",
				r.Name(), scores[0], scores[2], scores[3])
		}
	}
}

func TestVarianceRanksConstantLast(t *testing.T) {
	d := signalData(200, 5)
	scores, err := Variance{}.Rank(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if scores[3] != 0 {
		t.Fatalf("constant feature variance %v", scores[3])
	}
	for j := 0; j < 3; j++ {
		if scores[j] <= scores[3] {
			t.Fatalf("feature %d variance %v not above constant", j, scores[j])
		}
	}
}

func TestChi2RejectsNegativeFeatures(t *testing.T) {
	x := linalg.FromRows([][]float64{{-1}, {1}})
	d := &dataset.Dataset{Name: "neg", X: x, Y: []int{0, 1}, Sensitive: []int{0, 0}}
	if _, err := (Chi2{}).Rank(d, nil); err == nil {
		t.Fatal("negative features accepted")
	}
}

func TestFCBFPrunesRedundantCopy(t *testing.T) {
	d := signalData(400, 6)
	scores, err := FCBF{}.Rank(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Feature 1 is a near-copy of feature 0: FCBF must flag it redundant,
	// i.e. rank it clearly below the kept informative feature.
	if scores[1] >= 1 {
		t.Fatalf("redundant copy kept with score %v (scores %v)", scores[1], scores)
	}
	if scores[0] < 1 {
		t.Fatalf("informative feature removed (scores %v)", scores)
	}
}

func TestMIMDoesNotPruneRedundancy(t *testing.T) {
	d := signalData(400, 7)
	scores, err := MIM{}.Rank(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	// MIM assumes independence: the redundant copy scores nearly as high as
	// the original.
	if scores[1] < 0.5*scores[0] {
		t.Fatalf("MIM should keep the redundant copy high: %v", scores)
	}
}

func TestReliefFDeterministicWithSeed(t *testing.T) {
	d := signalData(150, 8)
	a, err := (ReliefF{}).Rank(d, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := (ReliefF{}).Rank(d, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("same-seed ReliefF differs")
		}
	}
}

func TestReliefFSingleClass(t *testing.T) {
	d := signalData(50, 10)
	for i := range d.Y {
		d.Y[i] = 0
	}
	scores, err := (ReliefF{}).Rank(d, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range scores {
		if v != 0 {
			t.Fatal("single-class ReliefF should be all zeros")
		}
	}
}

func TestMCFSSelectsStructureCarryingFeature(t *testing.T) {
	// Two clusters separated along feature 0; feature 1 is noise. MCFS is
	// unsupervised and must still find feature 0.
	rng := xrand.New(12)
	n := 120
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, rng.Uniform(0.8, 1.0))
		} else {
			x.Set(i, 0, rng.Uniform(0.0, 0.2))
		}
		x.Set(i, 1, rng.Float64())
	}
	d := &dataset.Dataset{Name: "clusters", X: x, Y: y, Sensitive: make([]int, n)}
	scores, err := (MCFS{}).Rank(d, xrand.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if scores[0] <= scores[1] {
		t.Fatalf("MCFS scores %v do not favour the cluster feature", scores)
	}
}

func TestModelImportanceIntrinsicVsPermutation(t *testing.T) {
	d := signalData(200, 14)
	lr := &ModelImportance{Spec: model.Spec{Kind: model.KindLR}}
	if _, err := lr.Rank(d, xrand.New(15)); err != nil {
		t.Fatal(err)
	}
	if lr.UsedPermutation {
		t.Fatal("LR has intrinsic importances; permutation fallback used")
	}
	nb := &ModelImportance{Spec: model.Spec{Kind: model.KindNB}}
	scores, err := nb.Rank(d, xrand.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if !nb.UsedPermutation {
		t.Fatal("NB must fall back to permutation importance (paper §6.3)")
	}
	if scores[0] <= scores[3] {
		t.Fatalf("permutation importance %v does not favour signal", scores)
	}
}

func TestPermutationImportanceUnfittedRNGRequired(t *testing.T) {
	d := signalData(50, 17)
	nb := &ModelImportance{Spec: model.Spec{Kind: model.KindNB}}
	if _, err := nb.Rank(d, nil); err == nil {
		t.Fatal("nil RNG accepted for permutation fallback")
	}
}

func TestRankersRejectEmptyDataset(t *testing.T) {
	d := &dataset.Dataset{Name: "empty", X: linalg.NewMatrix(0, 3)}
	for _, r := range allRankers() {
		if _, err := r.Rank(d, xrand.New(1)); err == nil {
			t.Errorf("%s accepted an empty dataset", r.Name())
		}
	}
}

func TestEntropyAndMutualInfo(t *testing.T) {
	// Uniform over 2 symbols: H = ln 2.
	codes := []int{0, 1, 0, 1}
	if h := entropy(codes, 2); math.Abs(h-math.Log(2)) > 1e-12 {
		t.Fatalf("entropy %v", h)
	}
	// Perfectly dependent: I = H = ln 2.
	if mi := mutualInfo(codes, codes, 2, 2); math.Abs(mi-math.Log(2)) > 1e-12 {
		t.Fatalf("MI %v", mi)
	}
	// Independent: I = 0.
	other := []int{0, 0, 1, 1}
	if mi := mutualInfo(codes, other, 2, 2); math.Abs(mi) > 1e-12 {
		t.Fatalf("independent MI %v", mi)
	}
	// SU of identical variables is 1.
	if su := symmetricalUncertainty(codes, codes, 2, 2); math.Abs(su-1) > 1e-12 {
		t.Fatalf("SU %v", su)
	}
}

func TestDiscretizeBounds(t *testing.T) {
	codes := discretize([]float64{0, 0.49, 0.5, 0.99, 1.0, -0.1, 1.1}, 2)
	want := []int{0, 0, 1, 1, 1, 0, 1}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("discretize = %v, want %v", codes, want)
		}
	}
}

func BenchmarkChi2(b *testing.B) {
	d := signalData(400, 1)
	for i := 0; i < b.N; i++ {
		if _, err := (Chi2{}).Rank(d, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReliefF(b *testing.B) {
	d := signalData(200, 1)
	for i := 0; i < b.N; i++ {
		if _, err := (ReliefF{}).Rank(d, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMCFS(b *testing.B) {
	d := signalData(200, 1)
	for i := 0; i < b.N; i++ {
		if _, err := (MCFS{}).Rank(d, xrand.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
