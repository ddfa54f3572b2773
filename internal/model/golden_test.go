package model

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

// logRegGoldenDigest is the SHA-256 of the IEEE bits of LogReg.Fit's
// weights and intercept at every (rows, C) pair TestLogRegGoldenDigest
// trains. It was recorded before the kernel fan-out was removed; any change
// to it means a fitted coefficient changed, and with it every stored LR
// evaluation.
const logRegGoldenDigest = "5f0fb5d674fa255f4df2e511f4999c13519473fb5ffa118bbb7b99a01139d181"

// TestLogRegGoldenDigest is the identity oracle of LR training at the
// multi-chunk sizes the system runs, where TestLogRegFitMatchesReferenceFuzzed
// checks only to 1e-9: the chunk geometry and the chunk-order summation of
// the gradient fix every bit, and a rewrite of Fit must keep them.
func TestLogRegGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; the Go spec lets %s fuse multiply-adds, which can change float bits", runtime.GOARCH)
	}
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for _, rows := range []int{40, 360, 600, 960, 2500} {
		d := fuzzBinary(xrand.New(uint64(rows)), rows, 12)
		for _, c := range []float64{0.01, 1, 100} {
			m := NewLogReg(c)
			if err := m.Fit(d); err != nil {
				t.Fatalf("rows=%d C=%v: %v", rows, c, err)
			}
			w, b := m.Coefficients()
			for _, v := range w {
				put(v)
			}
			put(b)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != logRegGoldenDigest {
		t.Fatalf("LR coefficient digest %s, want %s: a fitted coefficient changed", got, logRegGoldenDigest)
	}
}

// treeGoldenDigest is the SHA-256 of every node (feature, threshold bits,
// child indices, probability bits, leaf flag) and every importance bit of
// the trees TestTreeGoldenDigest fits. It was recorded before the split
// search became a one-sweep scan over sorted values; any change to it means
// a fitted tree changed, and with it every stored DT evaluation and every
// optimizer forest.
const treeGoldenDigest = "a5bc7f6e7b4542d5f1e4893be77b8f016dcd27d13de6e5b5c839b5ff6e00e710"

// TestTreeGoldenDigest is the identity oracle of CART training: Tree.Fit at
// the DT grid's depths 1–7 and the members of a class-balanced NewForest(20,
// seed), on the training splits the scenarios use (3:1:1 stratified, split
// stream 0x5eed) of eight generated profiles at three seeds each.
func TestTreeGoldenDigest(t *testing.T) {
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
	putTree := func(tr *Tree) {
		doc := flattenTree(tr)
		putBits(uint64(len(doc.Nodes)))
		for _, nd := range doc.Nodes {
			putBits(uint64(int64(nd.Feature)))
			put(nd.Threshold)
			putBits(uint64(int64(nd.Left)))
			putBits(uint64(int64(nd.Right)))
			put(nd.Proba)
			if nd.Leaf {
				putBits(1)
			} else {
				putBits(0)
			}
		}
		for _, v := range tr.FeatureImportances() {
			put(v)
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
			for depth := 1; depth <= 7; depth++ {
				tr := NewTree(depth)
				if err := tr.Fit(split.Train); err != nil {
					t.Fatalf("%s seed %d depth %d: %v", name, seed, depth, err)
				}
				putTree(tr)
			}
			f := NewForest(20, seed)
			if err := f.Fit(split.Train); err != nil {
				t.Fatalf("%s seed %d forest: %v", name, seed, err)
			}
			for _, tr := range f.members {
				putTree(tr)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != treeGoldenDigest {
		t.Fatalf("tree digest %s, want %s: a fitted tree changed", got, treeGoldenDigest)
	}
}
