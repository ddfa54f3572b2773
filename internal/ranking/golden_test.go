package ranking

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/declarative-fs/dfs/internal/dataset"
	"github.com/declarative-fs/dfs/internal/synth"
	"github.com/declarative-fs/dfs/internal/xrand"
)

// mcfsGoldenDigest is the SHA-256 of the IEEE bits of every score
// MCFS.Rank returns on the corpus TestMCFSRankGoldenDigest ranks. It was
// recorded before the spectral embedding moved to an in-place Jacobi over
// two n×n buffers; any change to it means a ranking changed, and with it
// every stored rank:mcfs entry and every TPE(MCFS) pool record.
const mcfsGoldenDigest = "c5c8054af9f8049080182fe462824c1dba799e5192e41f26192a67d35326fb06"

// TestMCFSRankGoldenDigest is the identity oracle of the MCFS ranking: the
// training splits the scenarios use (3:1:1 stratified, split stream 0x5eed)
// of eight generated profiles at three seeds each, plus fuzz datasets on
// both sides of the 200-row sample cap, quantized ones among them so that
// duplicate rows disconnect the kNN graph and tie its eigenvalues.
func TestMCFSRankGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; the Go spec lets %s fuse multiply-adds, which can change float bits", runtime.GOARCH)
	}
	h := sha256.New()
	var b [8]byte
	rank := func(label string, d *dataset.Dataset, seed uint64) {
		scores, err := MCFS{}.Rank(d, xrand.New(seed))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		binary.LittleEndian.PutUint64(b[:], uint64(len(scores)))
		h.Write(b[:])
		for _, v := range scores {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	profiles := []string{"COMPAS", "German Credit", "Titanic", "Telco Customer Churn",
		"Indian Liver Patient", "Brazil Tourism", "Social Mobility", "Diabetic Mellitus"}
	for _, name := range profiles {
		p, err := synth.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			d, err := synth.GenerateDataset(&p, seed)
			if err != nil {
				t.Fatal(err)
			}
			split, err := dataset.StratifiedSplit(d, xrand.NewStream(seed, 0x5eed))
			if err != nil {
				t.Fatal(err)
			}
			rank(name, split.Train, seed)
		}
	}
	rng := xrand.New(43)
	for trial, rows := range []int{2, 7, 31, 90, 150, 199, 200, 201, 230, 260, 400, 611} {
		d := fuzzDataset(rng, rows, 2+rng.Intn(9), trial%2 == 0)
		rank("fuzz", d, uint64(3000+trial))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != mcfsGoldenDigest {
		t.Fatalf("MCFS score digest %s, want %s: a ranking changed", got, mcfsGoldenDigest)
	}
}
