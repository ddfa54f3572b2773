// Package attack implements a decision-based black-box evasion attack in the
// HopSkipJump family (Chen, Jordan & Wainwright, 2020): starting from any
// misclassified point, it bisects to the decision boundary, estimates the
// boundary normal from Monte-Carlo sign queries, steps along it, and repeats
// — using only Predict() calls, never gradients or probabilities.
//
// The paper uses this attack to measure Min Safety: empirical robustness is
// the F1 drop between the original and the attacked test set (§3). The
// property DFS relies on — more features give the adversary more directions
// to fiddle with, hence lower safety — emerges naturally from the geometry:
// in higher dimensions the attack finds closer boundary points.
package attack

import (
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/metrics"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// The attack's query budget: small enough to evaluate inside a
// feature-selection loop, large enough to flip fragile models.
const (
	// iterations is the number of boundary-refinement rounds.
	iterations = 3
	// gradSamples is the number of Monte-Carlo sign queries per gradient
	// estimate.
	gradSamples = 12
	// bisectSteps bounds each bisection toward the boundary.
	bisectSteps = 10
)

// Result describes one attacked instance.
type Result struct {
	// Adversarial is the perturbed feature vector (nil if no starting point
	// of the opposite class existed).
	Adversarial []float64
	// Success reports whether the model misclassifies Adversarial relative
	// to its original prediction.
	Success bool
	// Queries counts Predict calls spent.
	Queries int
}

// Attack perturbs instance x so that clf's prediction flips. pool provides
// starting points (any instance predicted differently than x); typically the
// rest of the test set.
func Attack(clf model.Classifier, x []float64, pool *linalg.Matrix, rng *xrand.RNG) Result {
	return newWorkspace(len(x)).attack(clf, x, pool, rng)
}

// EmpiricalRobustness attacks up to maxInstances rows of test and returns
// the paper's safety score 1 − (F1_original − F1_attacked) computed over the
// attacked subset, plus the total number of model queries spent.
func EmpiricalRobustness(clf model.Classifier, test *dataset.Dataset, maxInstances int, rng *xrand.RNG) (safety float64, queries int) {
	n := test.Rows()
	if n == 0 {
		return 1, 0
	}
	k := maxInstances
	if k <= 0 || k > n {
		k = n
	}
	idx := rng.Sample(n, k)

	labels := make([]int, 3*k)
	yTrue, yOrig, yAtt := labels[:k], labels[k:2*k], labels[2*k:]
	ws := newWorkspace(test.Features())
	for pos, i := range idx {
		row := test.X.Row(i)
		yTrue[pos] = test.Y[i]
		yOrig[pos] = clf.Predict(row)
		res := ws.attack(clf, row, test.X, rng)
		queries += res.Queries
		if res.Success {
			yAtt[pos] = clf.Predict(res.Adversarial)
		} else {
			yAtt[pos] = yOrig[pos]
		}
	}
	f1o := metrics.F1Score(yTrue, yOrig)
	f1a := metrics.F1Score(yTrue, yAtt)
	return metrics.Safety(f1o, f1a), queries
}

// workspace holds the vectors of one attack: the current adversarial point,
// the step candidate, the gradient estimate and its sign-query direction,
// the bisection's original-side end and midpoint (which doubles as the
// gradient probe), and a difference buffer for distances. EmpiricalRobustness
// reuses one workspace across its instances, so an attack allocates nothing
// per probe.
type workspace struct {
	adv, cand, grad, u, lo, mid, diff []float64
}

func newWorkspace(dim int) *workspace {
	buf := make([]float64, 7*dim)
	next := func() []float64 {
		v := buf[:dim:dim]
		buf = buf[dim:]
		return v
	}
	return &workspace{adv: next(), cand: next(), grad: next(), u: next(), lo: next(), mid: next(), diff: next()}
}

// attack runs Attack in w. The returned Adversarial aliases w.adv, so it is
// valid until w's next attack.
func (w *workspace) attack(clf model.Classifier, x []float64, pool *linalg.Matrix, rng *xrand.RNG) Result {
	q := querier{clf: clf}
	orig := q.predict(x)

	// Initial adversarial: first pool row classified differently.
	found := false
	for i := 0; i < pool.Rows; i++ {
		if q.predict(pool.Row(i)) != orig {
			copy(w.adv, pool.Row(i))
			found = true
			break
		}
	}
	if !found {
		return Result{Queries: q.count}
	}

	q.bisect(x, w.adv, w.lo, w.mid, orig)
	dim := len(x)
	for it := 0; it < iterations; it++ {
		// Estimate the boundary normal via Monte-Carlo sign queries.
		delta := w.dist(x) / math.Sqrt(float64(dim)+1)
		if delta <= 0 {
			break
		}
		grad, u, probe := w.grad, w.u, w.mid
		clear(grad)
		for s := 0; s < gradSamples; s++ {
			for j := range u {
				u[j] = rng.Norm()
			}
			n := linalg.Norm2(u)
			if n == 0 {
				continue
			}
			for j := range probe {
				probe[j] = clamp01(w.adv[j] + delta*u[j]/n)
			}
			sign := -1.0
			if q.predict(probe) != orig {
				sign = 1.0
			}
			for j := range grad {
				grad[j] += sign * u[j] / n
			}
		}
		gn := linalg.Norm2(grad)
		if gn == 0 {
			break
		}
		// Geometric step-size search along the estimated normal.
		step := w.dist(x) / math.Sqrt(float64(it)+1)
		moved := false
		for step > 1e-4 {
			cand := w.cand
			for j := range cand {
				cand[j] = clamp01(w.adv[j] + step*grad[j]/gn)
			}
			if q.predict(cand) != orig {
				w.adv, w.cand = cand, w.adv
				moved = true
				break
			}
			step /= 2
		}
		if !moved {
			break
		}
		q.bisect(x, w.adv, w.lo, w.mid, orig)
	}

	success := q.predict(w.adv) != orig
	return Result{Adversarial: w.adv, Success: success, Queries: q.count}
}

// dist returns the L2 distance between w.adv and x.
func (w *workspace) dist(x []float64) float64 {
	for j := range w.diff {
		w.diff[j] = w.adv[j] - x[j]
	}
	return linalg.Norm2(w.diff)
}

type querier struct {
	clf   model.Classifier
	count int
}

func (q *querier) predict(x []float64) int {
	q.count++
	return q.clf.Predict(x)
}

// bisect walks the segment [x, adv] to the boundary in bisectSteps halvings,
// leaving in adv the point on the adversarial side; lo and mid are scratch
// of len(x).
func (q *querier) bisect(x, adv, lo, mid []float64, orig int) {
	copy(lo, x) // original side; adv is the adversarial side
	for s := 0; s < bisectSteps; s++ {
		for j := range mid {
			mid[j] = (lo[j] + adv[j]) / 2
		}
		if q.predict(mid) != orig {
			copy(adv, mid)
		} else {
			copy(lo, mid)
		}
	}
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
