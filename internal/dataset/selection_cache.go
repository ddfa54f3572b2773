package dataset

import "github.com/declarative-fs/dfs/internal/linalg"

// SelectionCache memoizes the most recent feature-selected views of one
// dataset. SelectFeatures copies the selected columns into a fresh matrix,
// and the evaluator's hot path re-selects the same subset in quick
// succession — once to train, once for RFE's ranking, once for a post-hoc
// test evaluation — so a tiny cache removes most of those copies.
//
// Keys are the evaluator's bit-packed mask bytes; lookups compare against
// the stored key without allocating (string conversion of a []byte compared
// with == compiles to a byte comparison). Two entries suffice for the
// observed access patterns (current subset + the neighbor being probed).
//
// A miss rewrites the older entry in place — its key, its matrix and its
// feature names — instead of allocating a view, so the cache's memory stays
// at two views of the widest subset seen. The price is a validity contract:
// a view returned by Select stays valid until the cache's second following
// miss, which rewrites it. Callers use a view before they select again, and
// must not keep one (or a model that aliases its matrix) past that point.
//
// Cached views are safe to share within that window because every consumer
// treats datasets as read-only: attacks copy rows before perturbing and
// permutation importance clones the matrix.
type SelectionCache struct {
	base    *Dataset
	entries [2]selectionEntry
	next    int
}

type selectionEntry struct {
	key  []byte
	view *Dataset
}

// NewSelectionCache wraps base with an empty cache.
func NewSelectionCache(base *Dataset) *SelectionCache {
	return &SelectionCache{base: base}
}

// Select returns the base dataset restricted to cols, serving a cached view
// when key matches a recent selection. key must uniquely determine cols.
// The view is valid until the second miss after this call (see
// SelectionCache).
func (c *SelectionCache) Select(key []byte, cols []int) *Dataset {
	for i := range c.entries {
		if e := &c.entries[i]; e.view != nil && string(e.key) == string(key) {
			return e.view
		}
	}
	e := &c.entries[c.next]
	c.next = (c.next + 1) % len(c.entries)
	if e.view == nil {
		e.view = &Dataset{X: &linalg.Matrix{}}
	}
	e.key = append(e.key[:0], key...)
	return c.base.selectFeaturesInto(e.view, cols)
}
