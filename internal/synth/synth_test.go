package synth

import (
	"math"
	"sort"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/xrand"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfilesCount(t *testing.T) {
	if len(Profiles()) != 19 {
		t.Fatalf("expected the paper's 19 datasets, got %d", len(Profiles()))
	}
}

func TestByName(t *testing.T) {
	p, err := ByName("COMPAS")
	if err != nil {
		t.Fatal(err)
	}
	if p.SensitiveName != "Race" {
		t.Fatalf("COMPAS sensitive attribute %q", p.SensitiveName)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestNamesMatchProfiles(t *testing.T) {
	names := Names()
	ps := Profiles()
	if len(names) != len(ps) {
		t.Fatal("length mismatch")
	}
	for i := range names {
		if names[i] != ps[i].Name {
			t.Fatal("order mismatch")
		}
	}
}

func TestGenerateAllProfiles(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			tab, err := Generate(&p, 42)
			if err != nil {
				t.Fatal(err)
			}
			if tab.Rows() != p.Rows {
				t.Fatalf("rows %d != %d", tab.Rows(), p.Rows)
			}
			if got := tab.FeatureCount(); got != p.Features() {
				t.Fatalf("features %d != profile.Features() %d", got, p.Features())
			}
			if len(tab.Columns) != p.Attributes() {
				t.Fatalf("attributes %d != %d", len(tab.Columns), p.Attributes())
			}
			if tab.Nominal.Rows != p.NominalRows || tab.Nominal.Features != p.NominalFeatures {
				t.Fatal("nominal dims not propagated")
			}
			// Both classes and both groups present.
			var c [2]int
			var g [2]int
			for i, y := range tab.Target {
				c[y]++
				g[tab.Sensitive[i]]++
			}
			if c[0] < 3 || c[1] < 3 {
				t.Fatalf("class counts %v", c)
			}
			if g[0] == 0 || g[1] == 0 {
				t.Fatalf("group counts %v", g)
			}
			// Preprocessing must succeed end to end.
			d, err := dataset.Preprocess(tab)
			if err != nil {
				t.Fatal(err)
			}
			if d.Features() != p.Features() {
				t.Fatal("preprocessed feature count mismatch")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ByName("COMPAS")
	a, err := Generate(&p, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(&p, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Target {
		if a.Target[i] != b.Target[i] || a.Sensitive[i] != b.Sensitive[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
	for ci := range a.Columns {
		ca, cb := &a.Columns[ci], &b.Columns[ci]
		for i := 0; i < a.Rows(); i++ {
			if ca.Kind == dataset.Numeric {
				va, vb := ca.Num[i], cb.Num[i]
				if math.IsNaN(va) != math.IsNaN(vb) || (!math.IsNaN(va) && va != vb) {
					t.Fatal("numeric cells differ across identical seeds")
				}
			} else if ca.Cat[i] != cb.Cat[i] {
				t.Fatal("categorical cells differ across identical seeds")
			}
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	p, _ := ByName("COMPAS")
	a, _ := Generate(&p, 1)
	b, _ := Generate(&p, 2)
	diff := false
	for i := range a.Target {
		if a.Target[i] != b.Target[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical targets")
	}
}

func TestPosRateApproximatelyRespected(t *testing.T) {
	p, _ := ByName("Thyroid Disease") // PosRate 0.10
	tab, err := Generate(&p, 3)
	if err != nil {
		t.Fatal(err)
	}
	pos := 0
	for _, y := range tab.Target {
		pos++
		if y == 0 {
			pos--
		}
	}
	rate := float64(pos) / float64(tab.Rows())
	// Label noise (2%) shifts the rate; allow a broad band around 0.10.
	if rate < 0.05 || rate > 0.25 {
		t.Fatalf("positive rate %v far from profile PosRate %v", rate, p.PosRate)
	}
}

func TestSensitiveFeatureIsFirstColumn(t *testing.T) {
	p, _ := ByName("Adult")
	tab, err := Generate(&p, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := &tab.Columns[0]
	if c.Kind != dataset.Categorical || c.Cardinality != 2 {
		t.Fatal("first column should be the binary sensitive feature")
	}
	for i := range c.Cat {
		if c.Cat[i] != tab.Sensitive[i] {
			t.Fatal("sensitive feature column diverges from metadata")
		}
	}
}

func TestInformativeFeaturesCarrySignal(t *testing.T) {
	p, _ := ByName("COMPAS")
	p.LabelNoise = 0
	p.MissingRate = 0
	tab, err := Generate(&p, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Mean |correlation| of informative numeric columns with the target must
	// exceed that of noise columns.
	corr := func(col []float64) float64 {
		my, mx := 0.0, 0.0
		for i, v := range col {
			mx += v
			my += float64(tab.Target[i])
		}
		n := float64(len(col))
		mx /= n
		my /= n
		var sxy, sxx, syy float64
		for i, v := range col {
			dx, dy := v-mx, float64(tab.Target[i])-my
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
		}
		if sxx == 0 || syy == 0 {
			return 0
		}
		return math.Abs(sxy / math.Sqrt(sxx*syy))
	}
	var infSum, noiseSum float64
	var infN, noiseN int
	for ci := range tab.Columns {
		c := &tab.Columns[ci]
		if c.Kind != dataset.Numeric {
			continue
		}
		switch {
		case len(c.Name) > 4 && c.Name[:4] == "inf_":
			infSum += corr(c.Num)
			infN++
		case len(c.Name) > 6 && c.Name[:6] == "noise_":
			noiseSum += corr(c.Num)
			noiseN++
		}
	}
	if infN == 0 || noiseN == 0 {
		t.Fatal("expected informative and noise columns")
	}
	if infSum/float64(infN) < 2*noiseSum/float64(noiseN) {
		t.Fatalf("informative columns not clearly more correlated: %v vs %v",
			infSum/float64(infN), noiseSum/float64(noiseN))
	}
}

func TestGroupGapCreatesBaseRateDifference(t *testing.T) {
	p, _ := ByName("Titanic") // GroupGap 1.4
	tab, err := Generate(&p, 13)
	if err != nil {
		t.Fatal(err)
	}
	var pos, n [2]int
	for i, y := range tab.Target {
		g := tab.Sensitive[i]
		n[g]++
		if y == 1 {
			pos[g]++
		}
	}
	rMaj := float64(pos[0]) / float64(n[0])
	rMin := float64(pos[1]) / float64(n[1])
	if rMaj-rMin < 0.10 {
		t.Fatalf("expected a clear base-rate gap, got majority %v vs minority %v", rMaj, rMin)
	}
}

func TestMissingRateInjectsMissing(t *testing.T) {
	p, _ := ByName("Titanic") // MissingRate 0.08
	tab, err := Generate(&p, 17)
	if err != nil {
		t.Fatal(err)
	}
	missing, total := 0, 0
	for ci := range tab.Columns {
		c := &tab.Columns[ci]
		if ci == 0 {
			continue // sensitive copy never blanked
		}
		for i := 0; i < tab.Rows(); i++ {
			total++
			if c.Kind == dataset.Numeric && math.IsNaN(c.Num[i]) {
				missing++
			}
			if c.Kind == dataset.Categorical && c.Cat[i] == dataset.MissingCat {
				missing++
			}
		}
	}
	rate := float64(missing) / float64(total)
	if rate < 0.04 || rate > 0.14 {
		t.Fatalf("missing rate %v far from 0.08", rate)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good, _ := ByName("COMPAS")
	cases := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.Rows = 5 },
		func(p *Profile) { p.NumericInformative = 0 },
		func(p *Profile) { p.MinorityFrac = 0 },
		func(p *Profile) { p.PosRate = 1 },
		func(p *Profile) { p.CatInformative = 1; p.Cardinality = 1 },
	}
	for i, mutate := range cases {
		p := good
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestGenerateDataset(t *testing.T) {
	p, _ := ByName("Indian Liver Patient")
	d, err := GenerateDataset(&p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != p.Rows || d.Features() != p.Features() {
		t.Fatalf("dims %dx%d", d.Rows(), d.Features())
	}
	if d.NominalRows() != p.NominalRows {
		t.Fatal("nominal rows lost")
	}
}

func TestQuantileBinning(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	bins := binQuantiles(vals, 4, make([]float64, len(vals)))
	counts := map[int]int{}
	for _, b := range bins {
		if b < 0 || b >= 4 {
			t.Fatalf("bin %d out of range", b)
		}
		counts[b]++
	}
	for b := 0; b < 4; b++ {
		if counts[b] != 2 {
			t.Fatalf("unbalanced bins: %v", counts)
		}
	}
}

// TestSelectionMatchesSort checks the selection-based order statistics
// against a full sort, on inputs with many ties and on more bins than
// values (so cut ranks repeat).
func TestSelectionMatchesSort(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		vals := make([]float64, n)
		for i := range vals {
			if trial%2 == 0 {
				vals[i] = float64(rng.Intn(4)) // heavy ties
			} else {
				vals[i] = rng.Norm()
			}
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		orig := append([]float64(nil), vals...)
		buf := make([]float64, n)

		for _, q := range []float64{0, 0.1, 0.5, 0.77, 0.999, 1} {
			want := sorted[min(int(q*float64(n)), n-1)]
			switch {
			case q <= 0:
				want = sorted[0] - 1
			case q >= 1:
				want = sorted[n-1] + 1
			}
			if got := quantile(vals, q, buf); got != want {
				t.Fatalf("trial %d: quantile(%v) = %v, want %v (vals %v)", trial, q, got, want, orig)
			}
		}
		for bins := 2; bins <= 7; bins++ {
			got := binQuantiles(vals, bins, buf)
			for i, v := range vals {
				want := sort.Search(bins-1, func(k int) bool { return sorted[n*(k+1)/bins] > v })
				if got[i] != want {
					t.Fatalf("trial %d bins %d: value %v in bucket %d, want %d", trial, bins, v, got[i], want)
				}
			}
		}
		for i := range vals {
			if vals[i] != orig[i] {
				t.Fatalf("trial %d: input reordered", trial)
			}
		}
	}
}
