// Package synth generates the synthetic stand-ins for the paper's 19 OpenML
// benchmark datasets (Table 2). The originals are not redistributable inside
// this repository, so each dataset is replaced by a generator profile that
// reproduces the axes the paper's findings depend on:
//
//   - nominal dimensions (rows × features) drive the simulated cost model,
//     preserving the scalability failures of Figure 4 (rankings timing out on
//     tall data, backward selection timing out on wide data);
//   - the number of informative vs. redundant vs. noise features controls
//     whether forward selection or ranking-based strategies win;
//   - bias leakage (features correlated with the sensitive attribute) and the
//     group base-rate gap control how hard the equal-opportunity constraint
//     is and whether removing the sensitive feature alone suffices;
//   - the categorical share reproduces effects like χ² performing well on
//     the predominantly categorical Adult dataset;
//   - class imbalance, label noise, and missing values exercise the
//     preprocessing pipeline and the F1-based accuracy constraint.
//
// Generation is fully deterministic given the profile and seed.
package synth

import (
	"fmt"
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// Profile describes one synthetic dataset. Nominal values mirror the paper's
// Table 2; materialized values are what Generate actually produces.
type Profile struct {
	Name          string
	SensitiveName string

	// Nominal paper-scale dimensions (Table 2), used for cost accounting.
	NominalRows       int
	NominalAttributes int
	NominalFeatures   int

	// Materialized size.
	Rows int
	// NumericInformative counts numeric features carrying class signal.
	NumericInformative int
	// NumericRedundant counts linear combinations of informative features.
	NumericRedundant int
	// NumericNoise counts pure-noise numeric features.
	NumericNoise int
	// CatInformative/CatNoise count categorical attributes (binned latents
	// vs. uniform noise); each expands to Cardinality one-hot features.
	CatInformative int
	CatNoise       int
	Cardinality    int

	// MinorityFrac is the fraction of instances in the protected minority
	// group; GroupGap shifts the class-score of minority members downward,
	// creating the base-rate difference that makes equal opportunity hard.
	MinorityFrac float64
	GroupGap     float64
	// LeakFrac is the fraction of informative features that additionally
	// leak the sensitive attribute; BiasLeak is the strength of the leak.
	// High leakage means fairness needs targeted feature removal (the
	// paper's "prune specific biased features" regime).
	LeakFrac float64
	BiasLeak float64

	// PosRate is the marginal positive-class rate; LabelNoise flips labels;
	// MissingRate blanks cells before imputation.
	PosRate     float64
	LabelNoise  float64
	MissingRate float64

	// IncludeSensitiveFeature adds the protected attribute itself as a
	// binary categorical feature (as in COMPAS/Adult).
	IncludeSensitiveFeature bool

	// Seed fixes the profile's private randomness.
	Seed uint64
}

// Attributes returns the number of materialized raw attributes.
func (p *Profile) Attributes() int {
	n := p.NumericInformative + p.NumericRedundant + p.NumericNoise + p.CatInformative + p.CatNoise
	if p.IncludeSensitiveFeature {
		n++
	}
	return n
}

// Features returns the number of materialized model-ready features after
// one-hot encoding.
func (p *Profile) Features() int {
	n := p.NumericInformative + p.NumericRedundant + p.NumericNoise +
		(p.CatInformative+p.CatNoise)*p.Cardinality
	if p.IncludeSensitiveFeature {
		n += 2
	}
	return n
}

// Validate checks the profile for inconsistencies.
func (p *Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("synth: profile without name")
	case p.Rows < 12:
		return fmt.Errorf("synth: profile %q needs at least 12 rows", p.Name)
	case p.NumericInformative < 1:
		return fmt.Errorf("synth: profile %q needs at least one informative feature", p.Name)
	case p.MinorityFrac <= 0 || p.MinorityFrac >= 1:
		return fmt.Errorf("synth: profile %q minority fraction %v out of (0,1)", p.Name, p.MinorityFrac)
	case p.PosRate <= 0 || p.PosRate >= 1:
		return fmt.Errorf("synth: profile %q positive rate %v out of (0,1)", p.Name, p.PosRate)
	case (p.CatInformative > 0 || p.CatNoise > 0) && p.Cardinality < 2:
		return fmt.Errorf("synth: profile %q categorical cardinality %d", p.Name, p.Cardinality)
	}
	return nil
}

// Generate materializes the profile as a raw table. The same (profile, seed)
// pair always yields an identical table.
func Generate(p *Profile, seed uint64) (*dataset.Table, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.NewStream(seed^p.Seed, p.Seed|1)
	n := p.Rows

	// Sensitive group membership.
	sens := make([]int, n)
	for i := range sens {
		if rng.Bool(p.MinorityFrac) {
			sens[i] = 1
		}
	}

	// Informative numeric features: standard normals, some leaking the
	// sensitive attribute.
	inf := make([][]float64, p.NumericInformative)
	nLeaky := int(float64(p.NumericInformative)*p.LeakFrac + 0.5)
	for j := range inf {
		col := make([]float64, n)
		leaky := j < nLeaky
		for i := range col {
			col[i] = rng.Norm()
			if leaky {
				col[i] += p.BiasLeak * (2*float64(sens[i]) - 1)
			}
		}
		inf[j] = col
	}

	// Class scores: random positive-ish weights over informative features,
	// a group gap pushing minority scores down, plus observation noise.
	beta := make([]float64, p.NumericInformative)
	for j := range beta {
		beta[j] = 0.5 + rng.Float64() // all informative features matter
		if rng.Bool(0.3) {
			beta[j] = -beta[j]
		}
	}
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := range inf {
			s += beta[j] * inf[j][i]
		}
		if sens[i] == 1 {
			s -= p.GroupGap
		}
		scores[i] = s + 0.5*rng.Norm()
	}
	// Threshold at the (1 - PosRate) quantile to hit the target class rate.
	// buf is where quantile and binQuantiles reorder their copies.
	buf := make([]float64, n)
	target := make([]int, n)
	thr := quantile(scores, 1-p.PosRate, buf)
	for i, s := range scores {
		if s > thr {
			target[i] = 1
		}
		if p.LabelNoise > 0 && rng.Bool(p.LabelNoise) {
			target[i] = 1 - target[i]
		}
	}
	ensureBothClasses(target, rng)

	tab := &dataset.Table{
		Name:          p.Name,
		Target:        target,
		Sensitive:     sens,
		SensitiveName: p.SensitiveName,
		Nominal:       dataset.NominalDims{Rows: p.NominalRows, Features: p.NominalFeatures},
	}

	if p.IncludeSensitiveFeature {
		cat := make([]int, n)
		copy(cat, sens)
		tab.Columns = append(tab.Columns, dataset.Column{
			Name: sensName(p.SensitiveName), Kind: dataset.Categorical, Cardinality: 2, Cat: cat,
		})
	}
	for j, col := range inf {
		tab.Columns = append(tab.Columns, dataset.Column{
			Name: fmt.Sprintf("inf_%02d", j), Kind: dataset.Numeric, Num: col,
		})
	}
	// Redundant features: mixes of two informative columns plus small noise.
	for j := 0; j < p.NumericRedundant; j++ {
		a := rng.Intn(p.NumericInformative)
		b := rng.Intn(p.NumericInformative)
		wa, wb := rng.Uniform(0.3, 1), rng.Uniform(0.3, 1)
		col := make([]float64, n)
		for i := range col {
			col[i] = wa*inf[a][i] + wb*inf[b][i] + 0.1*rng.Norm()
		}
		tab.Columns = append(tab.Columns, dataset.Column{
			Name: fmt.Sprintf("red_%02d", j), Kind: dataset.Numeric, Num: col,
		})
	}
	// Noise features.
	for j := 0; j < p.NumericNoise; j++ {
		col := make([]float64, n)
		for i := range col {
			col[i] = rng.Norm()
		}
		tab.Columns = append(tab.Columns, dataset.Column{
			Name: fmt.Sprintf("noise_%02d", j), Kind: dataset.Numeric, Num: col,
		})
	}
	// Informative categorical attributes: quantile-binned noisy copies of
	// informative columns, so that categorical signal exists (χ² regime).
	noisy := make([]float64, n)
	for j := 0; j < p.CatInformative; j++ {
		src := inf[j%p.NumericInformative]
		for i := range noisy {
			noisy[i] = src[i] + 0.3*rng.Norm()
		}
		tab.Columns = append(tab.Columns, dataset.Column{
			Name: fmt.Sprintf("cat_inf_%02d", j), Kind: dataset.Categorical,
			Cardinality: p.Cardinality, Cat: binQuantiles(noisy, p.Cardinality, buf),
		})
	}
	// Noise categorical attributes.
	for j := 0; j < p.CatNoise; j++ {
		col := make([]int, n)
		for i := range col {
			col[i] = rng.Intn(p.Cardinality)
		}
		tab.Columns = append(tab.Columns, dataset.Column{
			Name: fmt.Sprintf("cat_noise_%02d", j), Kind: dataset.Categorical,
			Cardinality: p.Cardinality, Cat: col,
		})
	}

	// Inject missing values (never in the sensitive feature copy).
	if p.MissingRate > 0 {
		for ci := range tab.Columns {
			c := &tab.Columns[ci]
			if p.IncludeSensitiveFeature && ci == 0 {
				continue
			}
			for i := 0; i < n; i++ {
				if !rng.Bool(p.MissingRate) {
					continue
				}
				if c.Kind == dataset.Numeric {
					c.Num[i] = math.NaN()
				} else {
					c.Cat[i] = dataset.MissingCat
				}
			}
		}
	}
	if err := tab.Validate(); err != nil {
		return nil, fmt.Errorf("synth: generated invalid table: %w", err)
	}
	return tab, nil
}

// GenerateDataset materializes and preprocesses a profile in one step.
func GenerateDataset(p *Profile, seed uint64) (*dataset.Dataset, error) {
	tab, err := Generate(p, seed)
	if err != nil {
		return nil, err
	}
	return dataset.Preprocess(tab)
}

func sensName(s string) string {
	if s == "" {
		return "sensitive"
	}
	return s
}

// quantile returns the q-quantile of vals without modifying them: for
// 0 < q < 1 the value at rank int(q*len(vals)) of their sorted order, for
// q <= 0 (q >= 1) one below (above) every value. It selects in a copy held
// by buf (at least len(vals) long).
func quantile(vals []float64, q float64, buf []float64) float64 {
	a := buf[:len(vals)]
	copy(a, vals)
	switch {
	case q <= 0:
		selectRank(a, 0)
		return a[0] - 1
	case q >= 1:
		selectRank(a, len(a)-1)
		return a[len(a)-1] + 1
	}
	k := min(int(q*float64(len(a))), len(a)-1)
	selectRank(a, k)
	return a[k]
}

// binQuantiles assigns each value its quantile bucket in [0, bins): the cut
// between buckets b-1 and b is the value at sorted rank len(vals)*b/bins,
// selected in a copy held by buf (at least len(vals) long).
func binQuantiles(vals []float64, bins int, buf []float64) []int {
	a := buf[:len(vals)]
	copy(a, vals)
	ranks := make([]int, bins-1)
	for b := range ranks {
		ranks[b] = len(a) * (b + 1) / bins
	}
	selectRanks(a, 0, ranks)
	out := make([]int, len(vals))
	for i, v := range vals {
		// First cut strictly greater than v; values equal to a cut fall into
		// the next bucket so quantile bins stay balanced.
		b := 0
		for b < len(ranks) && a[ranks[b]] <= v {
			b++
		}
		out[i] = b
	}
	return out
}

// selectRanks reorders a, which holds sorted ranks [off, off+len(a)) of some
// larger input, so that every rank in ranks (ascending, each in that range)
// holds its sorted-order value: it selects the middle rank, then recurses
// into the values on either side of it with the ranks that fall there.
func selectRanks(a []float64, off int, ranks []int) {
	if len(ranks) == 0 {
		return
	}
	m := len(ranks) / 2
	k := ranks[m] - off
	selectRank(a, k)
	left, right := ranks[:m], ranks[m+1:]
	for len(left) > 0 && left[len(left)-1] == ranks[m] {
		left = left[:len(left)-1]
	}
	for len(right) > 0 && right[0] == ranks[m] {
		right = right[1:]
	}
	selectRanks(a[:k], off, left)
	selectRanks(a[k+1:], off+k+1, right)
}

// selectRank reorders a so that a[k] holds the value sorting would put
// there, with no greater value before it and no smaller one after it
// (Hoare's quickselect with a median-of-three pivot). An order statistic is
// one value whatever the pivots, so the result equals the sorted one's.
func selectRank(a []float64, k int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for pivot < a[j] {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Now a[lo..j] <= pivot <= a[i..hi], and every value strictly
		// between j and i equals the pivot.
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return
		}
	}
}

// ensureBothClasses flips a few labels if one class is absent, so that
// downstream splitting always works.
func ensureBothClasses(y []int, rng *xrand.RNG) {
	c := [2]int{}
	for _, v := range y {
		c[v]++
	}
	for cls := 0; cls <= 1; cls++ {
		for c[cls] < 3 {
			i := rng.Intn(len(y))
			if y[i] != cls {
				y[i] = cls
				c[cls]++
				c[1-cls]--
			}
		}
	}
}
