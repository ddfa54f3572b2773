package core

import (
	"runtime"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/synth"
)

// TestContentHashGolden pins Scenario.ContentHash for a few fixed scenarios
// over generated data. The hash is the durable evaluation store's key, so a
// generator or hashing change that would silently cold-start every warm
// store fails here by name.
func TestContentHashGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes recorded on amd64; the Go spec lets %s fuse multiply-adds, which can change float bits", runtime.GOARCH)
	}
	cases := []struct {
		dataset string
		seed    uint64
		kind    model.Kind
		hpo     bool
		mode    Mode
		cs      constraint.Set
		custom  []CustomConstraint
		want    uint64
	}{
		{dataset: "COMPAS", seed: 7, kind: model.KindLR, mode: ModeSatisfy,
			cs:   constraint.Set{MinF1: 0.55, MaxSearchCost: 800, MaxFeatureFrac: 1},
			want: 0x2de0506c86fac248},
		{dataset: "German Credit", seed: 3, kind: model.KindDT, hpo: true, mode: ModeSatisfy,
			cs: constraint.Set{MinF1: 0.4, MaxSearchCost: 800, MaxFeatureFrac: 0.5,
				PrivacyEps: 2, MinSafety: 0.1},
			want: 0x523053dac03f8621},
		{dataset: "Telco Customer Churn", seed: 11, kind: model.KindNB, mode: ModeMaximizeUtility,
			cs:     constraint.Set{MinF1: 0.5, MaxSearchCost: 2000, MaxFeatureFrac: 1, MinEO: 0.8},
			custom: []CustomConstraint{{Name: "dp", Min: 0.5, Metric: func(MetricInput) float64 { return 1 }}},
			want:   0xc7e6599e260306d1},
	}
	for _, c := range cases {
		p, err := synth.ByName(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		d, err := synth.GenerateDataset(&p, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		scn, err := NewScenario(d, c.kind, c.cs, c.hpo, c.mode, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		scn.Custom = c.custom
		if got := scn.ContentHash(); got != c.want {
			t.Errorf("%s seed %d %s: ContentHash %#016x, want %#016x", c.dataset, c.seed, c.kind, got, c.want)
		}
	}
}
