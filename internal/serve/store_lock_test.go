//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package serve

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"github.com/declarative-fs/dfs/internal/obs"
)

// TestNewClosesStoreWhenReadoptFails: New opens the eval store before it
// re-adopts the directory's jobs, so a re-adoption that fails must close
// the store again. Otherwise its flusher goroutine and the exclusive flock
// on its segment outlive the failed New, and no later open of the store can
// compact that segment.
func TestNewClosesStoreWhenReadoptFails(t *testing.T) {
	dir, store := t.TempDir(), t.TempDir()
	queued := &Job{ID: "job-000000", Spec: JobSpec{Scenarios: 1, Seed: 1}, state: StateQueued}
	if err := queued.persist(dir); err != nil {
		t.Fatal(err)
	}
	// A directory where persist writes its temp file makes re-adopting the
	// queued job fail.
	if err := os.Mkdir(filepath.Join(dir, queued.ID+jobFileSuffix+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Dir: dir, EvalStore: store, Obs: obs.New()}); err == nil {
		t.Fatal("New succeeded although it could not persist a re-adopted job")
	}
	segs, err := filepath.Glob(filepath.Join(store, "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("the store opened no segment (%v)", err)
	}
	for _, seg := range segs {
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
		f.Close()
		if err != nil {
			t.Fatalf("segment %s is still locked after New failed: %v", filepath.Base(seg), err)
		}
	}
}
