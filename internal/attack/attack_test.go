package attack

import (
	"math"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/race"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// thresholdClf labels 1 iff feature 0 > 0.5; a transparent boundary.
type thresholdClf struct{}

func (thresholdClf) Name() string               { return "thr" }
func (thresholdClf) Fit(*dataset.Dataset) error { return nil }
func (thresholdClf) Clone() model.Classifier    { return thresholdClf{} }
func (thresholdClf) Predict(x []float64) int {
	if x[0] > 0.5 {
		return 1
	}
	return 0
}
func (c thresholdClf) PredictProba(x []float64) float64 { return float64(c.Predict(x)) }

// constClf always predicts the same label; unattackable.
type constClf struct{ label int }

func (c constClf) Name() string                   { return "const" }
func (c constClf) Fit(*dataset.Dataset) error     { return nil }
func (c constClf) Clone() model.Classifier        { return c }
func (c constClf) Predict([]float64) int          { return c.label }
func (c constClf) PredictProba([]float64) float64 { return float64(c.label) }

func poolAround(vals ...[]float64) *linalg.Matrix {
	return linalg.FromRows(vals)
}

func TestAttackFlipsThresholdModel(t *testing.T) {
	clf := thresholdClf{}
	x := []float64{0.9, 0.3}
	pool := poolAround([]float64{0.1, 0.5})
	res := Attack(clf, x, pool, xrand.New(1))
	if !res.Success {
		t.Fatal("attack failed on a trivial boundary")
	}
	if clf.Predict(res.Adversarial) == clf.Predict(x) {
		t.Fatal("reported success but prediction unchanged")
	}
	if res.Queries <= 0 {
		t.Fatal("no queries counted")
	}
}

func TestAttackFindsSmallPerturbation(t *testing.T) {
	clf := thresholdClf{}
	x := []float64{0.9, 0.3}
	pool := poolAround([]float64{0.0, 0.9})
	res := Attack(clf, x, pool, xrand.New(2))
	if !res.Success {
		t.Fatal("attack failed")
	}
	// The nearest boundary point is at distance 0.4 (feature 0 from 0.9 to
	// 0.5); the refined adversarial should be close to it, certainly much
	// closer than the initial pool point (distance ~1.08).
	d := math.Sqrt(linalg.SqDist(res.Adversarial, x))
	if d > 0.7 {
		t.Fatalf("adversarial distance %v, boundary refinement ineffective", d)
	}
}

func TestAttackFailsWithoutOppositeExample(t *testing.T) {
	clf := constClf{label: 1}
	x := []float64{0.5, 0.5}
	pool := poolAround([]float64{0.1, 0.1}, []float64{0.9, 0.9})
	res := Attack(clf, x, pool, xrand.New(3))
	if res.Success || res.Adversarial != nil {
		t.Fatal("attack against a constant classifier must fail")
	}
}

func TestAdversarialStaysInUnitBox(t *testing.T) {
	clf := thresholdClf{}
	x := []float64{0.9, 0.1}
	pool := poolAround([]float64{0.1, 0.9})
	res := Attack(clf, x, pool, xrand.New(5))
	for _, v := range res.Adversarial {
		if v < 0 || v > 1 {
			t.Fatalf("adversarial value %v outside [0,1]", v)
		}
	}
}

func TestAttackDeterministicWithSeed(t *testing.T) {
	clf := thresholdClf{}
	x := []float64{0.8, 0.4}
	pool := poolAround([]float64{0.2, 0.6})
	a := Attack(clf, x, pool, xrand.New(7))
	b := Attack(clf, x, pool, xrand.New(7))
	if a.Queries != b.Queries || a.Success != b.Success {
		t.Fatal("same seed produced different attack metadata")
	}
	for j := range a.Adversarial {
		if a.Adversarial[j] != b.Adversarial[j] {
			t.Fatal("same seed produced different adversarial")
		}
	}
}

func robustnessDataset(n, p int, seed uint64) *dataset.Dataset {
	rng := xrand.New(seed)
	x := linalg.NewMatrix(n, p)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			y[i] = 1
			x.Set(i, 0, rng.Uniform(0.55, 1.0))
		} else {
			x.Set(i, 0, rng.Uniform(0.0, 0.45))
		}
		for j := 1; j < p; j++ {
			x.Set(i, j, rng.Float64())
		}
	}
	return &dataset.Dataset{Name: "rob", X: x, Y: y, Sensitive: make([]int, n)}
}

func TestEmpiricalRobustnessVulnerableModel(t *testing.T) {
	d := robustnessDataset(60, 2, 8)
	clf := model.NewLogReg(1000) // sharp boundary, near-perfect accuracy
	if err := clf.Fit(d); err != nil {
		t.Fatal(err)
	}
	safety, queries := EmpiricalRobustness(clf, d, 20, xrand.New(9))
	if queries == 0 {
		t.Fatal("no queries spent")
	}
	if safety > 0.6 {
		t.Fatalf("LR near the boundary should be attackable, safety %v", safety)
	}
	if safety < 0 || safety > 1 {
		t.Fatalf("safety %v out of range", safety)
	}
}

func TestEmpiricalRobustnessConstantModelIsSafe(t *testing.T) {
	d := robustnessDataset(40, 2, 10)
	safety, _ := EmpiricalRobustness(constClf{label: 1}, d, 10, xrand.New(11))
	if safety != 1 {
		t.Fatalf("constant model safety %v, want 1", safety)
	}
}

func TestEmpiricalRobustnessEmptyDataset(t *testing.T) {
	d := &dataset.Dataset{Name: "empty", X: linalg.NewMatrix(0, 2)}
	safety, queries := EmpiricalRobustness(constClf{}, d, 5, xrand.New(1))
	if safety != 1 || queries != 0 {
		t.Fatal("empty dataset should be vacuously safe")
	}
}

func TestMoreFeaturesLowerSafety(t *testing.T) {
	// The geometric effect the paper reports: a wider attack surface makes
	// evasion easier. Train LR on 2 vs 12 features of the same task and
	// compare mean safety.
	avg := func(p int) float64 {
		sum := 0.0
		const reps = 3
		for r := 0; r < reps; r++ {
			d := robustnessDataset(80, p, uint64(20+r))
			clf := model.NewLogReg(10)
			if err := clf.Fit(d); err != nil {
				t.Fatal(err)
			}
			s, _ := EmpiricalRobustness(clf, d, 15, xrand.New(uint64(30+r)))
			sum += s
		}
		return sum / reps
	}
	narrow, wide := avg(2), avg(12)
	if wide > narrow+0.05 {
		t.Fatalf("expected wide (%v) to be no safer than narrow (%v)", wide, narrow)
	}
}

// TestEmpiricalRobustnessAllocCeiling is the alloc tripwire for the safety
// measurement: one workspace serves every probe of every attacked instance,
// so a measurement allocates only its instance sample, its label buffer and
// that workspace.
func TestEmpiricalRobustnessAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	d := robustnessDataset(60, 5, 1)
	clf := model.NewLogReg(10)
	if err := clf.Fit(d); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	allocs := testing.AllocsPerRun(5, func() {
		EmpiricalRobustness(clf, d, 8, rng)
	})
	if allocs > 4 {
		t.Fatalf("EmpiricalRobustness allocates %.0f objects, ceiling 4", allocs)
	}
}

func BenchmarkAttack(b *testing.B) {
	d := robustnessDataset(60, 5, 1)
	clf := model.NewLogReg(10)
	if err := clf.Fit(d); err != nil {
		b.Fatal(err)
	}
	rng := xrand.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Attack(clf, d.X.Row(i%d.Rows()), d.X, rng)
	}
}
