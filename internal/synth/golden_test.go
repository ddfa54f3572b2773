package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
)

// goldenSeeds are the generator seeds TestGenerateGoldenDigest covers for
// every profile.
var goldenSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 42, 0xdeadbeef}

// goldenDigest is the SHA-256 of every profile's Generate table and
// GenerateDataset output at goldenSeeds, in profile order. It was recorded
// before the generator's quantile and preprocessing steps were rewritten;
// any change to it means a generated dataset changed, and with it every
// scenario content hash and every durable evaluation store key.
const goldenDigest = "6a37901078dd6ae6ec8e9c4fd0e138558043685cc3ee2cf0c24b7a9bfc99b6b5"

// TestGenerateGoldenDigest is the identity oracle of dataset
// materialization: a rewrite of Generate or Preprocess must leave every
// output bit of every profile where it was.
func TestGenerateGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; the Go spec lets %s fuse multiply-adds, which can change float bits", runtime.GOARCH)
	}
	h := sha256.New()
	for _, p := range Profiles() {
		for _, seed := range goldenSeeds {
			tab, err := Generate(&p, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			digestTable(h, tab)
			d, err := GenerateDataset(&p, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", p.Name, seed, err)
			}
			digestDataset(h, d)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("generated data digest %s, want %s: a profile's table or dataset changed", got, goldenDigest)
	}
}

func digestU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func digestStr(h hash.Hash, s string) {
	digestU64(h, uint64(len(s)))
	h.Write([]byte(s))
}

func digestInts(h hash.Hash, xs []int) {
	digestU64(h, uint64(len(xs)))
	for _, x := range xs {
		digestU64(h, uint64(x))
	}
}

func digestFloats(h hash.Hash, xs []float64) {
	digestU64(h, uint64(len(xs)))
	for _, x := range xs {
		digestU64(h, math.Float64bits(x))
	}
}

func digestTable(h hash.Hash, tab *dataset.Table) {
	digestStr(h, tab.Name)
	digestStr(h, tab.SensitiveName)
	digestU64(h, uint64(tab.Nominal.Rows))
	digestU64(h, uint64(tab.Nominal.Features))
	digestInts(h, tab.Target)
	digestInts(h, tab.Sensitive)
	digestU64(h, uint64(len(tab.Columns)))
	for i := range tab.Columns {
		c := &tab.Columns[i]
		digestStr(h, c.Name)
		digestU64(h, uint64(c.Kind))
		digestU64(h, uint64(c.Cardinality))
		digestFloats(h, c.Num)
		digestInts(h, c.Cat)
	}
}

func digestDataset(h hash.Hash, d *dataset.Dataset) {
	digestStr(h, d.Name)
	digestU64(h, uint64(d.X.Rows))
	digestU64(h, uint64(d.X.Cols))
	digestFloats(h, d.X.Data)
	digestInts(h, d.Y)
	digestInts(h, d.Sensitive)
	digestU64(h, uint64(len(d.FeatureNames)))
	for _, n := range d.FeatureNames {
		digestStr(h, n)
	}
	digestU64(h, uint64(d.Nominal.Rows))
	digestU64(h, uint64(d.Nominal.Features))
}
