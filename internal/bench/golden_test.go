package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"
)

// poolRecordsGolden is the SHA-256 of json.Marshal(p.Records) for the
// ckptConfig pool. It was recorded before the kernel fan-out was removed;
// the pool CSV prints six significant digits, so this digest is the check
// that every record bit stays where it was.
const poolRecordsGolden = "50de88e030711706ac4b2956998b232809116406a5d9a371b81d39f16e884907"

// TestPoolRecordsGolden is the identity oracle of a whole pool build: three
// datasets, every model kind's kernels, every strategy's record.
func TestPoolRecordsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest recorded on amd64; the Go spec lets %s fuse multiply-adds, which can change float bits", runtime.GOARCH)
	}
	buf, err := json.Marshal(ckptRefPool(t).Records)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	if got := hex.EncodeToString(sum[:]); got != poolRecordsGolden {
		t.Fatalf("pool records digest %s, want %s: a record changed", got, poolRecordsGolden)
	}
}
