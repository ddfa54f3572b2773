// Package dataset defines the data model of the DFS system and the standard
// preprocessing pipeline of the paper (§6.1): one-hot encoding for
// categorical attributes, mean imputation and min-max scaling for numeric
// attributes, and stratified 3:1:1 train/validation/test splitting.
//
// Two representations exist. A Table is the raw view a user loads or a
// generator emits: typed columns (numeric or categorical), missing values,
// a binary classification target, and a designated binary sensitive
// attribute. A Dataset is the model-ready view produced by Preprocess: a
// dense feature matrix in [0, 1], the target, and the sensitive group of
// every instance, retained separately so fairness metrics work regardless of
// which feature columns a strategy selects.
package dataset

import (
	"fmt"
	"math"
	"strconv"

	"github.com/declarative-fs/dfs/internal/linalg"
)

// ColumnKind distinguishes how a raw column is preprocessed.
type ColumnKind int

const (
	// Numeric columns are mean-imputed and min-max scaled to [0, 1].
	Numeric ColumnKind = iota
	// Categorical columns are one-hot encoded; missing codes get an all-zero
	// encoding.
	Categorical
)

// MissingCat is the category code marking a missing categorical value.
const MissingCat = -1

// Column is one attribute of a raw table. Numeric columns use Num with NaN
// for missing entries; categorical columns use Cat with codes in
// [0, Cardinality) and MissingCat for missing entries.
type Column struct {
	Name string
	Kind ColumnKind

	Num []float64 // numeric values, NaN = missing
	Cat []int     // categorical codes, MissingCat = missing

	// Cardinality is the number of distinct categories of a categorical
	// column. It is fixed by the producer so one-hot layouts agree across
	// splits even when a split lacks some category.
	Cardinality int
}

// Len returns the number of instances in the column.
func (c *Column) Len() int {
	if c.Kind == Numeric {
		return len(c.Num)
	}
	return len(c.Cat)
}

// NominalDims records the paper-scale dimensions of a dataset. The simulated
// cost meter charges training and ranking costs against these nominal
// dimensions so that the scalability effects of the paper's Table 2 datasets
// survive even though the materialized data is capped (see DESIGN.md §4).
type NominalDims struct {
	Rows     int
	Features int
}

// Table is a raw dataset: typed columns, a binary target, and a binary
// sensitive attribute used by the equal-opportunity metric.
type Table struct {
	Name    string
	Columns []Column
	Target  []int // binary labels in {0, 1}

	// Sensitive holds the binary protected group of each instance
	// (1 = member of the minority group). It may also appear as a regular
	// column; metrics always read this dedicated copy.
	Sensitive     []int
	SensitiveName string

	// Nominal carries the paper-scale dimensions; zero means "use actual".
	Nominal NominalDims
}

// Validate checks structural invariants of the table.
func (t *Table) Validate() error {
	n := len(t.Target)
	if n == 0 {
		return fmt.Errorf("dataset %q: empty target", t.Name)
	}
	if len(t.Sensitive) != n {
		return fmt.Errorf("dataset %q: sensitive length %d != %d", t.Name, len(t.Sensitive), n)
	}
	for i, y := range t.Target {
		if y != 0 && y != 1 {
			return fmt.Errorf("dataset %q: target[%d] = %d not binary", t.Name, i, y)
		}
	}
	for i, s := range t.Sensitive {
		if s != 0 && s != 1 {
			return fmt.Errorf("dataset %q: sensitive[%d] = %d not binary", t.Name, i, s)
		}
	}
	for ci := range t.Columns {
		c := &t.Columns[ci]
		if c.Len() != n {
			return fmt.Errorf("dataset %q: column %q length %d != %d", t.Name, c.Name, c.Len(), n)
		}
		switch c.Kind {
		case Numeric:
			// NaN marks a missing cell; an infinite one has no min-max scaling.
			for i, v := range c.Num {
				if math.IsInf(v, 0) {
					return fmt.Errorf("dataset %q: column %q value %v at row %d is infinite", t.Name, c.Name, v, i)
				}
			}
		case Categorical:
			if c.Cardinality < 1 {
				return fmt.Errorf("dataset %q: column %q cardinality %d", t.Name, c.Name, c.Cardinality)
			}
			for i, v := range c.Cat {
				if v != MissingCat && (v < 0 || v >= c.Cardinality) {
					return fmt.Errorf("dataset %q: column %q code %d at row %d out of range", t.Name, c.Name, v, i)
				}
			}
		}
	}
	return nil
}

// Rows returns the number of instances.
func (t *Table) Rows() int { return len(t.Target) }

// FeatureCount returns the number of model-ready features the table expands
// to after one-hot encoding.
func (t *Table) FeatureCount() int {
	n := 0
	for i := range t.Columns {
		if t.Columns[i].Kind == Categorical {
			n += t.Columns[i].Cardinality
		} else {
			n++
		}
	}
	return n
}

// Dataset is the model-ready view: features scaled to [0, 1], binary target,
// and per-instance sensitive group.
type Dataset struct {
	Name         string
	X            *linalg.Matrix
	Y            []int
	Sensitive    []int
	FeatureNames []string

	// Nominal carries the paper-scale dimensions for cost accounting. For
	// generated data these are the Table 2 values; for user data they equal
	// the actual dimensions.
	Nominal NominalDims
}

// Rows returns the number of instances.
func (d *Dataset) Rows() int { return d.X.Rows }

// Features returns the number of features.
func (d *Dataset) Features() int { return d.X.Cols }

// Validate checks the invariants a model-ready dataset must hold. Datasets
// produced by Preprocess always pass; hand-constructed ones are checked at
// scenario construction.
func (d *Dataset) Validate() error {
	if d.X == nil {
		return fmt.Errorf("dataset %q: nil feature matrix", d.Name)
	}
	n := d.X.Rows
	if len(d.Y) != n {
		return fmt.Errorf("dataset %q: target length %d != rows %d", d.Name, len(d.Y), n)
	}
	if len(d.Sensitive) != n {
		return fmt.Errorf("dataset %q: sensitive length %d != rows %d", d.Name, len(d.Sensitive), n)
	}
	if d.FeatureNames != nil && len(d.FeatureNames) != d.X.Cols {
		return fmt.Errorf("dataset %q: %d feature names for %d features",
			d.Name, len(d.FeatureNames), d.X.Cols)
	}
	for i := 0; i < n; i++ {
		if y := d.Y[i]; y != 0 && y != 1 {
			return fmt.Errorf("dataset %q: target[%d] = %d not binary", d.Name, i, y)
		}
		if s := d.Sensitive[i]; s != 0 && s != 1 {
			return fmt.Errorf("dataset %q: sensitive[%d] = %d not binary", d.Name, i, s)
		}
	}
	for i, v := range d.X.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset %q: non-finite feature value at flat index %d", d.Name, i)
		}
	}
	return nil
}

// NominalRows returns the nominal row count, falling back to the actual one.
func (d *Dataset) NominalRows() int {
	if d.Nominal.Rows > 0 {
		return d.Nominal.Rows
	}
	return d.Rows()
}

// NominalFeatures returns the nominal feature count, falling back to the
// actual one.
func (d *Dataset) NominalFeatures() int {
	if d.Nominal.Features > 0 {
		return d.Nominal.Features
	}
	return d.Features()
}

// Subset returns a dataset restricted to the given rows (copying data).
func (d *Dataset) Subset(rows []int) *Dataset {
	y := make([]int, len(rows))
	s := make([]int, len(rows))
	for k, i := range rows {
		y[k] = d.Y[i]
		s[k] = d.Sensitive[i]
	}
	return &Dataset{
		Name:         d.Name,
		X:            d.X.SelectRows(rows),
		Y:            y,
		Sensitive:    s,
		FeatureNames: d.FeatureNames,
		Nominal:      d.Nominal,
	}
}

// SelectFeatures returns a dataset view with only the given feature columns.
// The sensitive attribute and target are preserved unchanged.
func (d *Dataset) SelectFeatures(cols []int) *Dataset {
	return d.selectFeaturesInto(&Dataset{X: &linalg.Matrix{}}, cols)
}

// selectFeaturesInto is SelectFeatures writing into dst, whose matrix and
// name storage it reuses when large enough; it returns dst.
func (d *Dataset) selectFeaturesInto(dst *Dataset, cols []int) *Dataset {
	var names []string
	if d.FeatureNames != nil {
		names = dst.FeatureNames[:0]
		if names == nil {
			names = make([]string, 0, len(cols))
		}
		for _, j := range cols {
			names = append(names, d.FeatureNames[j])
		}
	}
	*dst = Dataset{
		Name:         d.Name,
		X:            d.X.SelectColsInto(dst.X, cols),
		Y:            d.Y,
		Sensitive:    d.Sensitive,
		FeatureNames: names,
		Nominal:      d.Nominal,
	}
	return dst
}

// ClassCounts returns the number of instances with label 0 and 1.
func (d *Dataset) ClassCounts() (zero, one int) {
	for _, y := range d.Y {
		if y == 1 {
			one++
		} else {
			zero++
		}
	}
	return zero, one
}

// Preprocess converts a raw table into a model-ready dataset applying the
// paper's standard pipeline: mean imputation and min-max scaling for numeric
// columns, one-hot encoding for categorical columns. Every column is written
// straight into its features of the row-major matrix.
func Preprocess(t *Table) (*Dataset, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	n, f := t.Rows(), t.FeatureCount()
	d := &Dataset{
		Name:         t.Name,
		X:            linalg.NewMatrix(n, f),
		Y:            append([]int(nil), t.Target...),
		Sensitive:    append([]int(nil), t.Sensitive...),
		FeatureNames: make([]string, 0, f),
		Nominal:      t.Nominal,
	}
	j := 0 // the column's first feature
	for ci := range t.Columns {
		c := &t.Columns[ci]
		switch c.Kind {
		case Numeric:
			scaleInto(d.X, j, c.Num)
			d.FeatureNames = append(d.FeatureNames, c.Name)
			j++
		case Categorical:
			// The matrix starts zeroed, so a missing code stays all-zero.
			for i, v := range c.Cat {
				if v != MissingCat {
					d.X.Data[i*f+j+v] = 1
				}
			}
			for cat := 0; cat < c.Cardinality; cat++ {
				d.FeatureNames = append(d.FeatureNames, c.Name+"="+strconv.Itoa(cat))
			}
			j += c.Cardinality
		}
	}
	return d, nil
}

// scaleInto writes a numeric column into feature j of the zeroed matrix x:
// missing (NaN) cells take the mean of the observed ones, summed in row
// order (0 when none is observed), then every cell is min-max scaled to
// [0, 1] as (v-lo)/(hi-lo); a constant column stays 0.
func scaleInto(x *linalg.Matrix, j int, vals []float64) {
	sum, cnt := 0.0, 0
	for _, v := range vals {
		if !math.IsNaN(v) {
			sum += v
			cnt++
		}
	}
	mean := 0.0
	if cnt > 0 {
		mean = sum / float64(cnt)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if math.IsNaN(v) {
			v = mean
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if span == 0 {
		return
	}
	for i, v := range vals {
		if math.IsNaN(v) {
			v = mean
		}
		x.Data[i*x.Cols+j] = (v - lo) / span
	}
}
