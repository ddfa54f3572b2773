package dataset

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/declarative-fs/dfs/internal/linalg"
	"github.com/declarative-fs/dfs/internal/race"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// cacheBase is a 40×8 dataset with feature names and distinct values.
func cacheBase() *Dataset {
	rng := xrand.New(5)
	n, p := 40, 8
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = rng.Float64()
	}
	names := make([]string, p)
	for j := range names {
		names[j] = fmt.Sprintf("f%d", j)
	}
	return &Dataset{Name: "cache", X: x, Y: make([]int, n), Sensitive: make([]int, n),
		FeatureNames: names, Nominal: NominalDims{Rows: 400, Features: 80}}
}

// TestSelectionCacheMatchesSelectFeatures checks that hits and recycled
// misses serve exactly what SelectFeatures copies, also after a view of a
// wider subset was rewritten with a narrower one and back.
func TestSelectionCacheMatchesSelectFeatures(t *testing.T) {
	base := cacheBase()
	c := NewSelectionCache(base)
	subsets := [][]int{{0, 1, 2, 3, 4, 5}, {7}, {2, 4}, {0, 1, 2, 3, 4, 5}, {1, 3, 5, 6, 7}, {7}, {2, 4}}
	for round, cols := range subsets {
		key := []byte(fmt.Sprint(cols))
		got := c.Select(key, cols)
		if want := base.SelectFeatures(cols); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d cols %v: view %+v, want %+v", round, cols, got, want)
		}
	}
}

// TestSelectionCacheViewValidUntilSecondMiss pins the validity contract: a
// view survives the next miss and is rewritten by the one after.
func TestSelectionCacheViewValidUntilSecondMiss(t *testing.T) {
	base := cacheBase()
	c := NewSelectionCache(base)
	v := c.Select([]byte{1}, []int{0, 1})
	want := base.SelectFeatures([]int{0, 1})
	c.Select([]byte{2}, []int{2, 3})
	if !reflect.DeepEqual(v, want) {
		t.Fatal("a view changed at the first miss after it")
	}
	if c.Select([]byte{1}, []int{0, 1}) != v {
		t.Fatal("a recent selection missed")
	}
	if w := c.Select([]byte{3}, []int{4, 5}); w != v || !reflect.DeepEqual(v, base.SelectFeatures([]int{4, 5})) {
		t.Fatal("the second miss after a view did not recycle it")
	}
}

// TestSelectionCacheSteadyStateAllocFree pins that a miss whose subset fits
// the view it evicts rewrites that view without allocating.
func TestSelectionCacheSteadyStateAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts differ under the race detector")
	}
	base := cacheBase()
	c := NewSelectionCache(base)
	wide := []int{0, 1, 2, 3, 4, 5, 6, 7}
	c.Select([]byte{0xfe}, wide)
	c.Select([]byte{0xff}, wide)
	key := []byte{0}
	cols := []int{1, 3, 6}
	allocs := testing.AllocsPerRun(100, func() {
		key[0]++ // a new subset key every run: every Select misses
		c.Select(key, cols)
	})
	if allocs != 0 {
		t.Fatalf("a selection-cache miss allocates %.1f objects, want 0", allocs)
	}
}
