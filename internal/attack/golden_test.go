package attack

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/model"
	"github.com/declarative-fs/dfs/internal/synth"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// robustnessGoldenDigest is the SHA-256 of the safety bits and query counts
// of EmpiricalRobustness, and of every adversarial vector, success flag and
// query count of Attack, over the fits TestEmpiricalRobustnessGoldenDigest
// attacks. It was recorded before the attack reused its vectors across
// probes and instances; any change to it means a safety score changed, and
// with it every stored Min Safety evaluation.
const robustnessGoldenDigest = "7b7712a70a868168e76103ff034b029ae9248bde5310246783ee35048bd5f2f1"

// TestEmpiricalRobustnessGoldenDigest is the identity oracle of the evasion
// attack: fitted LR, NB and DT models on the training splits of three
// generated profiles, attacked on their validation splits at full width and
// on a four-feature view, the way the evaluator measures Min Safety.
func TestEmpiricalRobustnessGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; the Go spec lets %s fuse multiply-adds, which can change float bits", runtime.GOARCH)
	}
	h := sha256.New()
	var b [8]byte
	putBits := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put := func(v float64) { putBits(math.Float64bits(v)) }
	for _, name := range []string{"COMPAS", "German Credit", "Titanic"} {
		p, err := synth.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 2; seed++ {
			d, err := synth.GenerateDataset(&p, seed)
			if err != nil {
				t.Fatal(err)
			}
			split, err := dataset.StratifiedSplit(d, xrand.NewStream(seed, 0x5eed))
			if err != nil {
				t.Fatal(err)
			}
			for _, cols := range [][]int{nil, {0, 2, 3, 5}} {
				train, val := split.Train, split.Val
				if cols != nil {
					train, val = train.SelectFeatures(cols), val.SelectFeatures(cols)
				}
				for _, kind := range model.Kinds {
					clf, err := model.New(model.Spec{Kind: kind})
					if err != nil {
						t.Fatal(err)
					}
					if err := clf.Fit(train); err != nil {
						t.Fatalf("%s seed %d %s: %v", name, seed, kind, err)
					}
					safety, queries := EmpiricalRobustness(clf, val, 8, xrand.New(seed))
					put(safety)
					putBits(uint64(queries))
					rng := xrand.New(seed + 100)
					for i := 0; i < 6; i++ {
						res := Attack(clf, val.X.Row(i), val.X, rng)
						putBits(uint64(len(res.Adversarial)))
						for _, v := range res.Adversarial {
							put(v)
						}
						if res.Success {
							putBits(1)
						} else {
							putBits(0)
						}
						putBits(uint64(res.Queries))
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != robustnessGoldenDigest {
		t.Fatalf("attack digest %s, want %s: an attack result changed", got, robustnessGoldenDigest)
	}
}
