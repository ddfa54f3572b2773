package bench

import (
	"reflect"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
)

// TestPoolSharingDeterminism is the tentpole guarantee of the memoization
// layer: a pool built with the shared trained-subset memo (and parallel
// strategies) is record-for-record identical to one built with fully private
// caches. The config spans several datasets and the constraint fuzzer's full
// window, so privacy and safety scenarios — the ones with randomized
// evaluations — are included; run under -race this also exercises the
// singleflight path with Workers > 1.
func TestPoolSharingDeterminism(t *testing.T) {
	cfg := Config{
		Scenarios: 6,
		Seed:      3,
		Mode:      core.ModeSatisfy,
		MaxEvals:  15,
		Datasets:  []string{"COMPAS", "Indian Liver Patient", "Brazil Tourism"},
		Sampler:   constraint.SamplerConfig{MinSearchCost: 10, MaxSearchCost: 1500},
		Workers:   4,
	}

	shared, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := cfg
	cfgOff.NoEvalSharing = true
	private, err := BuildPool(cfgOff)
	if err != nil {
		t.Fatal(err)
	}

	if len(shared.Records) != len(private.Records) {
		t.Fatalf("record counts differ: shared %d private %d",
			len(shared.Records), len(private.Records))
	}
	sawConstrained := false
	for i := range shared.Records {
		s, p := &shared.Records[i], &private.Records[i]
		if s.Constraints.HasPrivacy() || s.Constraints.HasSafety() {
			sawConstrained = true
		}
		if !reflect.DeepEqual(s, p) {
			t.Errorf("scenario %d diverged under sharing:\nshared  %+v\nprivate %+v", i, s, p)
		}
	}
	if !sawConstrained {
		t.Log("note: no privacy/safety scenario sampled; randomized paths untested by this seed")
	}
}

// TestPoolNegativeWorkers: Workers <= 0 means GOMAXPROCS, so a negative
// count (dfsd -pool-workers -1) builds the default's records instead of
// panicking on a negative semaphore size.
func TestPoolNegativeWorkers(t *testing.T) {
	cfg := Config{Scenarios: 2, Seed: 5, MaxEvals: 10, Datasets: []string{"COMPAS"}}
	want, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = -1
	got, err := BuildPool(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Fatal("Workers -1 built different records from Workers 0")
	}
}
