package model

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

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
