package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/declarative-fs/dfs/internal/xrand"
)

// smallTable builds a valid raw table with one numeric (with a missing
// value) and one categorical column.
func smallTable() *Table {
	return &Table{
		Name: "toy",
		Columns: []Column{
			{Name: "age", Kind: Numeric, Num: []float64{10, 20, math.NaN(), 40, 50, 60}},
			{Name: "color", Kind: Categorical, Cardinality: 3,
				Cat: []int{0, 1, 2, MissingCat, 1, 0}},
		},
		Target:        []int{0, 1, 0, 1, 0, 1},
		Sensitive:     []int{1, 0, 1, 0, 1, 0},
		SensitiveName: "group",
	}
}

func TestTableValidate(t *testing.T) {
	tab := smallTable()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallTable()
	bad.Target[0] = 2
	if bad.Validate() == nil {
		t.Fatal("non-binary target accepted")
	}
	bad = smallTable()
	bad.Sensitive = bad.Sensitive[:3]
	if bad.Validate() == nil {
		t.Fatal("short sensitive accepted")
	}
	bad = smallTable()
	bad.Columns[1].Cat[0] = 7
	if bad.Validate() == nil {
		t.Fatal("out-of-range category accepted")
	}
	bad = smallTable()
	bad.Columns[0].Num = bad.Columns[0].Num[:2]
	if bad.Validate() == nil {
		t.Fatal("ragged column accepted")
	}
}

func TestFeatureCount(t *testing.T) {
	tab := smallTable()
	if got := tab.FeatureCount(); got != 4 { // 1 numeric + 3 one-hot
		t.Fatalf("FeatureCount = %d, want 4", got)
	}
}

func TestPreprocessScalingAndImputation(t *testing.T) {
	d, err := Preprocess(smallTable())
	if err != nil {
		t.Fatal(err)
	}
	if d.Features() != 4 || d.Rows() != 6 {
		t.Fatalf("dims %dx%d", d.Rows(), d.Features())
	}
	// Numeric column scaled to [0, 1]: min value 10 → 0, max 60 → 1.
	if d.X.At(0, 0) != 0 || d.X.At(5, 0) != 1 {
		t.Fatalf("scaling wrong: %v, %v", d.X.At(0, 0), d.X.At(5, 0))
	}
	// Missing numeric imputed with the observed mean 36 → (36-10)/50 = 0.52.
	if math.Abs(d.X.At(2, 0)-0.52) > 1e-12 {
		t.Fatalf("imputation wrong: %v", d.X.At(2, 0))
	}
	// One-hot: row 0 has color=0.
	if d.X.At(0, 1) != 1 || d.X.At(0, 2) != 0 || d.X.At(0, 3) != 0 {
		t.Fatal("one-hot row 0 wrong")
	}
	// Missing categorical encodes to all zeros.
	if d.X.At(3, 1) != 0 || d.X.At(3, 2) != 0 || d.X.At(3, 3) != 0 {
		t.Fatal("missing categorical not all-zero")
	}
	// All values within [0, 1].
	for _, v := range d.X.Data {
		if v < 0 || v > 1 {
			t.Fatalf("value %v outside [0,1]", v)
		}
	}
	wantNames := []string{"age", "color=0", "color=1", "color=2"}
	for i, n := range wantNames {
		if d.FeatureNames[i] != n {
			t.Fatalf("feature names %v", d.FeatureNames)
		}
	}
}

func TestPreprocessConstantColumn(t *testing.T) {
	tab := &Table{
		Name: "const",
		Columns: []Column{
			{Name: "c", Kind: Numeric, Num: []float64{5, 5, 5, 5, 5, 5}},
		},
		Target:    []int{0, 1, 0, 1, 0, 1},
		Sensitive: []int{0, 0, 1, 1, 0, 1},
	}
	d, err := Preprocess(tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Rows(); i++ {
		if d.X.At(i, 0) != 0 {
			t.Fatal("constant column should scale to 0")
		}
	}
}

func TestPreprocessAllMissingNumeric(t *testing.T) {
	nan := math.NaN()
	tab := &Table{
		Name: "allmiss",
		Columns: []Column{
			{Name: "m", Kind: Numeric, Num: []float64{nan, nan, nan, nan, nan, nan}},
		},
		Target:    []int{0, 1, 0, 1, 0, 1},
		Sensitive: []int{0, 0, 1, 1, 0, 1},
	}
	d, err := Preprocess(tab)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Rows(); i++ {
		if d.X.At(i, 0) != 0 {
			t.Fatal("all-missing column should impute+scale to 0")
		}
	}
}

func TestSelectFeaturesKeepsSensitive(t *testing.T) {
	d, err := Preprocess(smallTable())
	if err != nil {
		t.Fatal(err)
	}
	s := d.SelectFeatures([]int{2})
	if s.Features() != 1 || s.FeatureNames[0] != "color=1" {
		t.Fatalf("SelectFeatures wrong: %v", s.FeatureNames)
	}
	for i := range d.Sensitive {
		if s.Sensitive[i] != d.Sensitive[i] || s.Y[i] != d.Y[i] {
			t.Fatal("SelectFeatures must not touch target/sensitive")
		}
	}
}

func TestSubset(t *testing.T) {
	d, err := Preprocess(smallTable())
	if err != nil {
		t.Fatal(err)
	}
	s := d.Subset([]int{5, 0})
	if s.Rows() != 2 || s.Y[0] != 1 || s.Y[1] != 0 || s.Sensitive[0] != 0 {
		t.Fatal("Subset row selection wrong")
	}
	if s.X.At(0, 0) != 1 {
		t.Fatal("Subset data wrong")
	}
}

func TestNominalFallback(t *testing.T) {
	d, err := Preprocess(smallTable())
	if err != nil {
		t.Fatal(err)
	}
	if d.NominalRows() != 6 || d.NominalFeatures() != 4 {
		t.Fatal("nominal fallback wrong")
	}
	d.Nominal = NominalDims{Rows: 1000000, Features: 2000}
	if d.NominalRows() != 1000000 || d.NominalFeatures() != 2000 {
		t.Fatal("explicit nominal ignored")
	}
}

func bigDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	rng := xrand.New(1)
	num := make([]float64, n)
	target := make([]int, n)
	sens := make([]int, n)
	for i := range num {
		num[i] = rng.Float64()
		target[i] = rng.Intn(2)
		sens[i] = rng.Intn(2)
	}
	d, err := Preprocess(&Table{
		Name:      "big",
		Columns:   []Column{{Name: "x", Kind: Numeric, Num: num}},
		Target:    target,
		Sensitive: sens,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStratifiedSplitProportions(t *testing.T) {
	d := bigDataset(t, 500)
	sp, err := StratifiedSplit(d, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	total := sp.Train.Rows() + sp.Val.Rows() + sp.Test.Rows()
	if total != 500 {
		t.Fatalf("split loses rows: %d", total)
	}
	if sp.Train.Rows() < 280 || sp.Train.Rows() > 320 {
		t.Fatalf("train size %d not near 3/5", sp.Train.Rows())
	}
	// Stratification: class balance within 5 points of the global balance.
	_, onesAll := d.ClassCounts()
	globalRate := float64(onesAll) / float64(d.Rows())
	for _, part := range []*Dataset{sp.Train, sp.Val, sp.Test} {
		_, ones := part.ClassCounts()
		rate := float64(ones) / float64(part.Rows())
		if math.Abs(rate-globalRate) > 0.05 {
			t.Fatalf("stratification off: %v vs %v", rate, globalRate)
		}
	}
}

func TestStratifiedSplitDisjoint(t *testing.T) {
	d := bigDataset(t, 100)
	// Tag each row with a unique value to detect overlap.
	for i := 0; i < d.Rows(); i++ {
		d.X.Set(i, 0, float64(i))
	}
	sp, err := StratifiedSplit(d, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]int{}
	for _, part := range []*Dataset{sp.Train, sp.Val, sp.Test} {
		for i := 0; i < part.Rows(); i++ {
			seen[part.X.At(i, 0)]++
		}
	}
	if len(seen) != 100 {
		t.Fatalf("expected 100 unique rows, got %d", len(seen))
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("row %v appears %d times", v, c)
		}
	}
}

func TestStratifiedSplitDeterministic(t *testing.T) {
	d := bigDataset(t, 120)
	a, err := StratifiedSplit(d, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := StratifiedSplit(d, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.Train.Rows() != b.Train.Rows() {
		t.Fatal("split sizes differ across identical seeds")
	}
	for i := 0; i < a.Train.Rows(); i++ {
		if a.Train.X.At(i, 0) != b.Train.X.At(i, 0) {
			t.Fatal("split contents differ across identical seeds")
		}
	}
}

func TestStratifiedSplitTooSmall(t *testing.T) {
	d := bigDataset(t, 100)
	// Force a single positive instance.
	for i := range d.Y {
		d.Y[i] = 0
	}
	d.Y[0] = 1
	if _, err := StratifiedSplit(d, xrand.New(1)); err == nil {
		t.Fatal("expected error for class with <3 instances")
	}
}

func TestStratifiedSampleSizeAndBalance(t *testing.T) {
	d := bigDataset(t, 1000)
	s := StratifiedSample(d, 100, xrand.New(4))
	if s.Rows() < 95 || s.Rows() > 105 {
		t.Fatalf("sample size %d not near 100", s.Rows())
	}
	_, onesAll := d.ClassCounts()
	_, ones := s.ClassCounts()
	if math.Abs(float64(ones)/float64(s.Rows())-float64(onesAll)/float64(d.Rows())) > 0.06 {
		t.Fatal("sample not stratified")
	}
	// Requesting more rows than available returns everything.
	all := StratifiedSample(d, 5000, xrand.New(4))
	if all.Rows() != 1000 {
		t.Fatalf("oversized sample returned %d rows", all.Rows())
	}
}

func TestKFoldPartition(t *testing.T) {
	d := bigDataset(t, 103)
	folds, err := KFold(d, 5, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("fold count %d", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		train, val := f[0], f[1]
		if len(train)+len(val) != 103 {
			t.Fatalf("fold does not cover dataset: %d + %d", len(train), len(val))
		}
		inVal := map[int]bool{}
		for _, i := range val {
			seen[i]++
			inVal[i] = true
		}
		for _, i := range train {
			if inVal[i] {
				t.Fatal("train/val overlap within a fold")
			}
		}
	}
	if len(seen) != 103 {
		t.Fatalf("validation folds cover %d rows, want 103", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("row %d validated %d times", i, c)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	d := bigDataset(t, 10)
	if _, err := KFold(d, 1, xrand.New(1)); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KFold(d, 11, xrand.New(1)); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tab := smallTable()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "toy")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows() != tab.Rows() || len(got.Columns) != len(tab.Columns) {
		t.Fatalf("roundtrip dims differ")
	}
	for j := range tab.Columns {
		want, have := &tab.Columns[j], &got.Columns[j]
		if want.Name != have.Name || want.Kind != have.Kind {
			t.Fatalf("column %d metadata differs", j)
		}
		for i := 0; i < tab.Rows(); i++ {
			if want.Kind == Numeric {
				wv, hv := want.Num[i], have.Num[i]
				if math.IsNaN(wv) != math.IsNaN(hv) || (!math.IsNaN(wv) && wv != hv) {
					t.Fatalf("numeric cell (%d,%d) differs: %v vs %v", i, j, wv, hv)
				}
			} else if want.Cat[i] != have.Cat[i] {
				t.Fatalf("categorical cell (%d,%d) differs", i, j)
			}
		}
	}
	for i := range tab.Target {
		if got.Target[i] != tab.Target[i] || got.Sensitive[i] != tab.Sensitive[i] {
			t.Fatal("target/sensitive differ after roundtrip")
		}
	}
}

func TestReadCSVRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"a:num\n1\n",                         // missing target/sensitive
		"a:zzz,__target__,__sensitive__\n",   // bad kind
		"a:cat:0,__target__,__sensitive__\n", // bad cardinality
		"a:num,__target__,__sensitive__\nx,0,0\n", // bad numeric
	}
	for i, c := range cases {
		if _, err := ReadCSV(bytes.NewBufferString(c), "bad"); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

// TestReadCSVRejectsInfinite: an "Inf" cell parses as a float, but an
// infinite value has no min-max scaling, so the table is rejected at load
// time, naming the column and row, instead of surfacing later as a
// non-finite feature matrix.
func TestReadCSVRejectsInfinite(t *testing.T) {
	csv := "a:num,b:num,__target__,__sensitive__\n1,2,0,0\n3,Inf,1,1\n,4,0,1\n"
	_, err := ReadCSV(bytes.NewBufferString(csv), "inf")
	if err == nil {
		t.Fatal("infinite cell accepted")
	}
	for _, want := range []string{`"inf"`, `"b"`, "row 1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestPreprocessRejectsInfinite: Preprocess validates its table, so a
// hand-built table with -Inf fails there; NaN stays the missing marker.
func TestPreprocessRejectsInfinite(t *testing.T) {
	tab := smallTable()
	tab.Columns[0].Num[4] = math.Inf(-1)
	_, err := Preprocess(tab)
	if err == nil {
		t.Fatal("-Inf cell accepted")
	}
	for _, want := range []string{`"toy"`, `"age"`, "row 4"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %s", err, want)
		}
	}
}

// TestPropertyMinMaxScaleRange: Preprocess scales any finite numeric column
// into [0, 1].
func TestPropertyMinMaxScaleRange(t *testing.T) {
	f := func(raw [16]float64) bool {
		vals := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		d, err := Preprocess(&Table{
			Name:      "prop",
			Columns:   []Column{{Name: "x", Kind: Numeric, Num: vals}},
			Target:    make([]int, len(vals)),
			Sensitive: make([]int, len(vals)),
		})
		if err != nil {
			return false
		}
		for _, v := range d.X.Data {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySubsetPreservesAlignment(t *testing.T) {
	d := bigDataset(t, 50)
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		rows := rng.Sample(50, 10)
		s := d.Subset(rows)
		for k, i := range rows {
			if s.Y[k] != d.Y[i] || s.Sensitive[k] != d.Sensitive[i] || s.X.At(k, 0) != d.X.At(i, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
