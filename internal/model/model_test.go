package model

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// separable builds a linearly separable dataset: feature 0 determines the
// label, feature 1 is noise. Values are kept in [0, 1] like preprocessed
// data.
func separable(n int, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			x.Set(i, 0, rng.Uniform(0.7, 1.0))
			y[i] = 1
		} else {
			x.Set(i, 0, rng.Uniform(0.0, 0.3))
		}
		x.Set(i, 1, rng.Float64())
		s[i] = rng.Intn(2)
	}
	return &dataset.Dataset{Name: "sep", X: x, Y: y, Sensitive: s,
		FeatureNames: []string{"signal", "noise"}}
}

// xorData builds the XOR pattern that linear models cannot fit but trees can.
func xorData(n int, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	x := linalg.NewMatrix(n, 2)
	y := make([]int, n)
	s := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		if (a > 0.5) != (b > 0.5) {
			y[i] = 1
		}
	}
	return &dataset.Dataset{Name: "xor", X: x, Y: y, Sensitive: s,
		FeatureNames: []string{"a", "b"}}
}

func accuracy(c Classifier, d *dataset.Dataset) float64 {
	correct := 0
	for i := 0; i < d.Rows(); i++ {
		if c.Predict(d.X.Row(i)) == d.Y[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.Rows())
}

func allClassifiers() []Classifier {
	return []Classifier{
		NewLogReg(1),
		NewGaussianNB(1e-9),
		NewTree(4),
		NewLinearSVM(1),
		NewForest(25, 1),
	}
}

func TestAllModelsLearnSeparableData(t *testing.T) {
	train := separable(200, 1)
	test := separable(100, 2)
	for _, c := range allClassifiers() {
		if err := c.Fit(train); err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if acc := accuracy(c, test); acc < 0.9 {
			t.Errorf("%s accuracy %v on separable data", c.Name(), acc)
		}
	}
}

func TestProbasAreProbabilities(t *testing.T) {
	train := separable(100, 3)
	for _, c := range allClassifiers() {
		if err := c.Fit(train); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < train.Rows(); i++ {
			p := c.PredictProba(train.X.Row(i))
			if p < 0 || p > 1 || math.IsNaN(p) {
				t.Fatalf("%s proba %v out of range", c.Name(), p)
			}
			// Predict must be consistent with proba thresholding.
			want := 0
			if p >= 0.5 {
				want = 1
			}
			if c.Predict(train.X.Row(i)) != want {
				t.Fatalf("%s Predict inconsistent with PredictProba", c.Name())
			}
		}
	}
}

func TestUnfittedModelsReturnHalf(t *testing.T) {
	for _, c := range allClassifiers() {
		if p := c.PredictProba([]float64{0.5, 0.5}); p != 0.5 {
			t.Errorf("%s unfitted proba %v", c.Name(), p)
		}
	}
}

func TestSingleClassTraining(t *testing.T) {
	d := separable(50, 4)
	for i := range d.Y {
		d.Y[i] = 1
	}
	for _, c := range allClassifiers() {
		if err := c.Fit(d); err != nil {
			t.Fatalf("%s single-class fit: %v", c.Name(), err)
		}
		if got := c.Predict([]float64{0.1, 0.1}); got != 1 {
			t.Errorf("%s should predict the constant class, got %d", c.Name(), got)
		}
	}
}

func TestEmptyDatasetRejected(t *testing.T) {
	d := &dataset.Dataset{Name: "empty", X: linalg.NewMatrix(0, 2)}
	for _, c := range allClassifiers() {
		if err := c.Fit(d); err == nil {
			t.Errorf("%s accepted an empty dataset", c.Name())
		}
	}
}

func TestCloneIsUntrainedAndIndependent(t *testing.T) {
	train := separable(100, 5)
	for _, c := range allClassifiers() {
		if err := c.Fit(train); err != nil {
			t.Fatal(err)
		}
		clone := c.Clone()
		if p := clone.PredictProba([]float64{0.9, 0.5}); p != 0.5 {
			t.Errorf("%s clone is not untrained (proba %v)", c.Name(), p)
		}
		if clone.Name() != c.Name() {
			t.Errorf("clone changed name")
		}
	}
}

func TestTreeRespectsDepthLimit(t *testing.T) {
	d := xorData(400, 6)
	for _, depth := range []int{1, 2, 3, 5} {
		tr := NewTree(depth)
		if err := tr.Fit(d); err != nil {
			t.Fatal(err)
		}
		if got := tr.Depth(); got > depth {
			t.Fatalf("depth %d exceeds limit %d", got, depth)
		}
	}
}

func TestTreeSolvesXORButLinearModelsCannot(t *testing.T) {
	train, test := xorData(600, 7), xorData(200, 8)
	tr := NewTree(4)
	if err := tr.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(tr, test); acc < 0.85 {
		t.Fatalf("tree accuracy %v on XOR", acc)
	}
	lr := NewLogReg(1)
	if err := lr.Fit(train); err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(lr, test); acc > 0.7 {
		t.Fatalf("LR accuracy %v on XOR is suspiciously high", acc)
	}
}

func TestTreeStumpAtDepthOne(t *testing.T) {
	d := separable(100, 9)
	tr := NewTree(1)
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	if tr.Depth() != 1 || tr.LeafCount() != 2 {
		t.Fatalf("stump has depth %d leaves %d", tr.Depth(), tr.LeafCount())
	}
}

func TestImportancesIdentifySignalFeature(t *testing.T) {
	d := separable(300, 10)
	for _, c := range []Classifier{NewLogReg(1), NewTree(3), NewLinearSVM(1), NewForest(25, 2)} {
		if err := c.Fit(d); err != nil {
			t.Fatal(err)
		}
		imp := c.(Importancer).FeatureImportances()
		if len(imp) != 2 {
			t.Fatalf("%s importance length %d", c.Name(), len(imp))
		}
		if imp[0] <= imp[1] {
			t.Errorf("%s importances %v do not favour the signal feature", c.Name(), imp)
		}
		for _, v := range imp {
			if v < 0 {
				t.Errorf("%s negative importance %v", c.Name(), v)
			}
		}
	}
}

func TestNBDoesNotExposeImportances(t *testing.T) {
	var c Classifier = NewGaussianNB(1e-9)
	if _, ok := c.(Importancer); ok {
		t.Fatal("NB should not implement Importancer (paper: permutation fallback)")
	}
}

func TestTreeImportancesSumToOne(t *testing.T) {
	d := xorData(300, 11)
	tr := NewTree(4)
	if err := tr.Fit(d); err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, v := range tr.FeatureImportances() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importances sum %v", sum)
	}
}

func TestWeightedTreeShiftsDecision(t *testing.T) {
	// An imbalanced dataset: 90% negatives. With huge positive weights the
	// tree must flip towards predicting positives.
	rng := xrand.New(12)
	n := 200
	x := linalg.NewMatrix(n, 1)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, rng.Float64())
		if i%10 == 0 {
			y[i] = 1
		}
	}
	d := &dataset.Dataset{Name: "imb", X: x, Y: y, Sensitive: make([]int, n)}
	tr := NewTree(3)
	if err := tr.FitWeighted(d, [2]float64{1, 100}); err != nil {
		t.Fatal(err)
	}
	pos := 0
	for i := 0; i < n; i++ {
		pos += tr.Predict(x.Row(i))
	}
	if pos < n/2 {
		t.Fatalf("highly weighted positives ignored: %d/%d positive predictions", pos, n)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	d := xorData(200, 13)
	a, b := NewForest(15, 99), NewForest(15, 99)
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Rows(); i++ {
		if a.PredictProba(d.X.Row(i)) != b.PredictProba(d.X.Row(i)) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestForestBalancedHelpsMinorityRecall(t *testing.T) {
	// Imbalanced separable data: balanced weighting should recall the
	// minority class.
	rng := xrand.New(14)
	n := 300
	x := linalg.NewMatrix(n, 1)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%10 == 0 {
			y[i] = 1
			x.Set(i, 0, rng.Uniform(0.55, 1.0))
		} else {
			x.Set(i, 0, rng.Uniform(0.0, 0.6))
		}
	}
	d := &dataset.Dataset{Name: "imb", X: x, Y: y, Sensitive: make([]int, n)}
	f := NewForest(25, 3)
	if err := f.Fit(d); err != nil {
		t.Fatal(err)
	}
	tp, fn := 0, 0
	for i := 0; i < n; i++ {
		if y[i] == 1 {
			if f.Predict(x.Row(i)) == 1 {
				tp++
			} else {
				fn++
			}
		}
	}
	if recall := float64(tp) / float64(tp+fn); recall < 0.7 {
		t.Fatalf("balanced forest minority recall %v", recall)
	}
}

func TestSpecFactoryAndDefaults(t *testing.T) {
	for _, k := range []Kind{KindLR, KindNB, KindDT, KindSVM} {
		c, err := New(Spec{Kind: k})
		if err != nil {
			t.Fatal(err)
		}
		if c.Name() != string(k) {
			t.Fatalf("factory name %q != %q", c.Name(), k)
		}
	}
	if _, err := New(Spec{Kind: "bogus"}); err == nil {
		t.Fatal("bogus kind accepted")
	}
}

func TestDefaultGrids(t *testing.T) {
	if g := DefaultGrid(KindLR); len(g) != 6 || g[0].C != 0.01 || g[5].C != 1000 {
		t.Fatalf("LR grid wrong: %+v", g)
	}
	if g := DefaultGrid(KindNB); len(g) != 7 || g[0].VarSmoothing != 1e-12 {
		t.Fatalf("NB grid wrong: %+v", g)
	}
	if g := DefaultGrid(KindDT); len(g) != 7 || g[0].MaxDepth != 1 || g[6].MaxDepth != 7 {
		t.Fatalf("DT grid wrong: %+v", g)
	}
	if DefaultGrid("bogus") != nil {
		t.Fatal("bogus grid not nil")
	}
}

func TestLogRegCoefficientRoundTrip(t *testing.T) {
	lr := NewLogReg(1)
	if err := lr.Fit(separable(100, 15)); err != nil {
		t.Fatal(err)
	}
	w, b := lr.Coefficients()
	lr2 := NewLogReg(1)
	lr2.SetCoefficients(w, b)
	x := []float64{0.8, 0.2}
	if lr.PredictProba(x) != lr2.PredictProba(x) {
		t.Fatal("coefficient roundtrip changed predictions")
	}
}

func TestNBStatsRoundTrip(t *testing.T) {
	nb := NewGaussianNB(1e-9)
	if err := nb.Fit(separable(100, 16)); err != nil {
		t.Fatal(err)
	}
	mean, variance, prior := nb.Stats()
	nb2 := NewGaussianNB(1e-9)
	nb2.SetStats(mean, variance, prior)
	x := []float64{0.9, 0.5}
	if nb.PredictProba(x) != nb2.PredictProba(x) {
		t.Fatal("stats roundtrip changed predictions")
	}
}

func TestPredictBatch(t *testing.T) {
	d := separable(50, 19)
	lr := NewLogReg(1)
	if err := lr.Fit(d); err != nil {
		t.Fatal(err)
	}
	batch := PredictBatch(lr, d.X)
	for i := range batch {
		if batch[i] != lr.Predict(d.X.Row(i)) {
			t.Fatal("batch prediction differs")
		}
	}
}

func TestLogRegDeterministic(t *testing.T) {
	d := separable(120, 20)
	a, b := NewLogReg(1), NewLogReg(1)
	if err := a.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(d); err != nil {
		t.Fatal(err)
	}
	wa, ba := a.Coefficients()
	wb, bb := b.Coefficients()
	if ba != bb {
		t.Fatal("intercepts differ")
	}
	for j := range wa {
		if wa[j] != wb[j] {
			t.Fatal("weights differ")
		}
	}
}

func TestRegularizationShrinksWeights(t *testing.T) {
	d := separable(150, 21)
	strong := NewLogReg(0.001)
	weak := NewLogReg(1000)
	if err := strong.Fit(d); err != nil {
		t.Fatal(err)
	}
	if err := weak.Fit(d); err != nil {
		t.Fatal(err)
	}
	ws, _ := strong.Coefficients()
	ww, _ := weak.Coefficients()
	if linalgNorm(ws) >= linalgNorm(ww) {
		t.Fatalf("strong regularization did not shrink weights: %v vs %v",
			linalgNorm(ws), linalgNorm(ww))
	}
}

func linalgNorm(w []float64) float64 {
	s := 0.0
	for _, v := range w {
		s += v * v
	}
	return math.Sqrt(s)
}

func TestPropertySigmoidRange(t *testing.T) {
	f := func(z float64) bool {
		if math.IsNaN(z) {
			return true
		}
		p := sigmoid(z)
		return p >= 0 && p <= 1 && !math.IsNaN(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyGiniBounds(t *testing.T) {
	f := func(a, b uint16) bool {
		g := gini(float64(a), float64(b))
		return g >= 0 && g <= 0.5+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeFit(b *testing.B) {
	d := xorData(300, 1)
	for i := 0; i < b.N; i++ {
		tr := NewTree(4)
		if err := tr.Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}
