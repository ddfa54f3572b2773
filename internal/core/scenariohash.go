package core

import (
	"math"

	"github.com/declarative-fs/dfs/internal/dataset"
)

// contentHasher is incremental FNV-1a, folding every value through the byte
// stream so field boundaries stay unambiguous.
type contentHasher uint64

func newContentHasher() contentHasher { return 14695981039346656037 }

func (h *contentHasher) byte(b byte) {
	*h = (*h ^ contentHasher(b)) * 1099511628211
}

func (h *contentHasher) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
}

func (h *contentHasher) f64(v float64) { h.u64(math.Float64bits(v)) }

func (h *contentHasher) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *contentHasher) str(s string) {
	h.u64(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
}

func (h *contentHasher) ints(xs []int) {
	h.u64(uint64(len(xs)))
	for _, x := range xs {
		h.u64(uint64(x))
	}
}

func (h *contentHasher) part(d *dataset.Dataset) {
	h.u64(uint64(d.X.Rows))
	h.u64(uint64(d.X.Cols))
	h.u64(uint64(d.Nominal.Rows))
	h.u64(uint64(d.Nominal.Features))
	for _, v := range d.X.Data {
		h.f64(v)
	}
	h.ints(d.Y)
	h.ints(d.Sensitive)
}

// ContentHash fingerprints everything about the scenario that determines an
// evaluation's physical result: the exact bytes of all three split parts
// (feature matrices, labels, sensitive groups, nominal cost dimensions), the
// model kind, the HPO flag, the run mode, the constraint thresholds, and the
// custom-constraint declarations. Together with the evaluator's memo key
// (mask, kind, HPO, ε, seed) this makes a durable evalstore.Key a true
// content address: equal keys imply equal training inputs and equal random
// draws, so the stored result is exact.
//
// Deliberately excluded: feature/dataset names (labels, not content),
// and custom Metric function bodies, which cannot be hashed — a custom
// constraint is identified by (Name, Min), so two runs sharing a store must
// not bind different metrics to the same custom-constraint name.
func (s *Scenario) ContentHash() uint64 {
	h := newContentHasher()
	h.str(string(s.ModelKind))
	h.bool(s.HPO)
	h.u64(uint64(s.Mode))
	h.u64(uint64(s.AttackInstances))
	cs := s.Constraints
	h.f64(cs.MinF1)
	h.f64(cs.MaxSearchCost)
	h.f64(cs.MaxFeatureFrac)
	h.f64(cs.MinEO)
	h.f64(cs.MinSafety)
	h.f64(cs.PrivacyEps)
	h.u64(uint64(len(s.Custom)))
	for _, c := range s.Custom {
		h.str(c.Name)
		h.f64(c.Min)
	}
	h.part(s.Split.Train)
	h.part(s.Split.Val)
	h.part(s.Split.Test)
	return uint64(h)
}
