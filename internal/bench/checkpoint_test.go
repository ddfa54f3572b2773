package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// ckptConfig is the canonical sharing config (TestPoolSharingDeterminism):
// several datasets and the sampler's full window, so checkpointed records
// carry the full variety of result shapes through the JSON round trip.
func ckptConfig() Config {
	return Config{
		Scenarios: 6,
		Seed:      3,
		Mode:      core.ModeSatisfy,
		MaxEvals:  15,
		Datasets:  []string{"COMPAS", "Indian Liver Patient", "Brazil Tourism"},
		Sampler:   constraint.SamplerConfig{MinSearchCost: 10, MaxSearchCost: 1500},
		Workers:   2,
	}
}

// ckptRefPool builds the uninterrupted reference pool once per test binary.
var (
	ckptRefOnce sync.Once
	ckptRef     *Pool
	ckptRefErr  error
)

func ckptRefPool(t *testing.T) *Pool {
	t.Helper()
	ckptRefOnce.Do(func() { ckptRef, ckptRefErr = BuildPool(ckptConfig()) })
	if ckptRefErr != nil {
		t.Fatalf("reference pool: %v", ckptRefErr)
	}
	return ckptRef
}

// cancelAfterSink wraps a RecordSink and cancels a context once limit
// records have been appended — a deterministic stand-in for SIGTERM landing
// mid-run.
type cancelAfterSink struct {
	inner  RecordSink
	cancel context.CancelFunc
	mu     sync.Mutex
	n      int
	limit  int
}

func (s *cancelAfterSink) Append(rec *Record) error {
	err := s.inner.Append(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	if s.n == s.limit {
		s.cancel()
	}
	return err
}

// TestResumeBitIdentical is the tentpole guarantee: a run killed mid-pool
// and resumed from its checkpoint produces a pool record-for-record
// identical to an uninterrupted single-process build — including the JSON
// round trip every resumed record takes through the checkpoint file.
func TestResumeBitIdentical(t *testing.T) {
	ref := ckptRefPool(t)
	cfg := ckptConfig()
	cfg.Workers = 1 // serialize scenarios so the cancellation point is sharp
	path := filepath.Join(t.TempDir(), "pool.ckpt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w, err := CreateCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sink := &cancelAfterSink{inner: w, cancel: cancel, limit: 2}
	partial, err := BuildPoolResumed(ctx, cfg, RunOptions{Sink: sink})
	if cerr := w.Close(); cerr != nil {
		t.Fatalf("close interrupted checkpoint: %v", cerr)
	}
	if err != nil {
		t.Fatalf("interrupted build: %v", err)
	}
	if !partial.Interrupted {
		t.Fatal("cancellation did not mark the pool interrupted")
	}
	if len(partial.Records) >= cfg.Scenarios {
		t.Fatalf("cancellation too late: %d/%d records completed", len(partial.Records), cfg.Scenarios)
	}
	if len(partial.Records) < sink.limit {
		t.Fatalf("only %d records before cancel, want >= %d", len(partial.Records), sink.limit)
	}

	resumed, err := ResumePool(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed.Interrupted {
		t.Fatal("resumed pool still marked interrupted")
	}
	if len(resumed.Records) != cfg.Scenarios {
		t.Fatalf("resumed pool has %d records, want %d", len(resumed.Records), cfg.Scenarios)
	}
	if !reflect.DeepEqual(resumed.Records, ref.Records) {
		t.Fatal("resumed pool differs from the uninterrupted build")
	}

	// A second resume finds every scenario done, runs nothing, and still
	// reproduces the pool (idempotence of the recovery path).
	again, err := ResumePool(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("second resume: %v", err)
	}
	if !reflect.DeepEqual(again.Records, ref.Records) {
		t.Fatal("second resume diverged")
	}
}

// TestResumeTornTail pins the crash-mid-write path: a torn (unterminated)
// trailing line is dropped and truncated away, and the resume still
// completes bit-identically.
func TestResumeTornTail(t *testing.T) {
	ref := ckptRefPool(t)
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "pool.ckpt")
	if _, err := ResumePool(context.Background(), cfg, path); err != nil {
		t.Fatal(err)
	}
	intact, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ID":5,"Dataset":"tru`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	p, err := ResumePool(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if !reflect.DeepEqual(p.Records, ref.Records) {
		t.Fatal("torn-tail resume diverged from the uninterrupted build")
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != intact.Size() {
		t.Fatalf("torn tail not truncated: size %d, want %d", after.Size(), intact.Size())
	}

	// A final newline-terminated but unparseable line (power loss persisting
	// pages out of order) is dropped the same way.
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("garbage that is not JSON\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err = ResumePool(context.Background(), cfg, path)
	if err != nil {
		t.Fatalf("resume over unparseable final line: %v", err)
	}
	if !reflect.DeepEqual(p.Records, ref.Records) {
		t.Fatal("unparseable-tail resume diverged")
	}
}

// TestResumeConfigMismatch ensures a checkpoint written under one config
// cannot silently seed a different pool, while scheduling-only knobs
// (Workers) remain free to change between runs.
func TestResumeConfigMismatch(t *testing.T) {
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "pool.ckpt")
	w, err := CreateCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Seed++
	if _, _, err := ResumeCheckpoint(path, bad); err == nil ||
		!strings.Contains(err.Error(), "different config") {
		t.Fatalf("seed mismatch not rejected: %v", err)
	}
	badShard := cfg
	badShard.Shard = ShardSpec{Index: 1, Count: 2}
	if _, _, err := ResumeCheckpoint(path, badShard); err == nil ||
		!strings.Contains(err.Error(), "different config") {
		t.Fatalf("shard mismatch not rejected: %v", err)
	}

	ok := cfg
	ok.Workers = 9 // scheduling only; never affects records
	w2, recs, err := ResumeCheckpoint(path, ok)
	if err != nil {
		t.Fatalf("workers change rejected: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh checkpoint resumed %d records", len(recs))
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	// And a second fresh start against the same path must refuse rather than
	// clobber the previous run.
	if _, err := CreateCheckpoint(path, cfg); err == nil ||
		!strings.Contains(err.Error(), "already exists") {
		t.Fatalf("existing checkpoint not protected: %v", err)
	}
}

// TestResumeHeaderWithEvalStoreKey: checkpoints written by older builds
// carry config fields Config no longer has, such as "EvalStore":"" in the
// header config. testdata/retired-header-fields holds one such field per
// line. Existing dfsd data directories and mixed-version fan-outs hold such
// headers, so a resume over one must work and stay bit-identical.
func TestResumeHeaderWithEvalStoreKey(t *testing.T) {
	ref := ckptRefPool(t)
	cfg := ckptConfig()
	fields, err := os.ReadFile(filepath.Join("testdata", "retired-header-fields"))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range strings.Split(strings.TrimSpace(string(fields)), "\n") {
		t.Run(field, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "pool.ckpt")
			w, err := CreateCheckpoint(path, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				rec := ref.Records[i]
				if err := w.Append(&rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			hdr, rest, _ := strings.Cut(string(data), "\n")
			if !strings.HasSuffix(hdr, "}}") {
				t.Fatalf("test setup: unexpected header shape %q", hdr)
			}
			hdr = strings.TrimSuffix(hdr, "}}") + "," + field + "}}"
			if err := os.WriteFile(path, []byte(hdr+"\n"+rest), 0o644); err != nil {
				t.Fatal(err)
			}

			p, err := ResumePool(context.Background(), cfg, path)
			if err != nil {
				t.Fatalf("resume over a header with %s: %v", field, err)
			}
			if !reflect.DeepEqual(p.Records, ref.Records) {
				t.Fatal("resumed pool diverged from the reference build")
			}
			if _, recs, err := ReadCheckpoint(path); err != nil || !reflect.DeepEqual(recs, ref.Records) {
				t.Fatalf("completed checkpoint does not read back as the reference: %v", err)
			}
		})
	}
}

// TestCheckpointDuplicateLines: identical duplicate record lines (an append
// replayed around a crash) deduplicate silently; a disagreeing duplicate is
// corruption.
func TestCheckpointDuplicateLines(t *testing.T) {
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "pool.ckpt")
	ref, err := ResumePool(context.Background(), cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	last := lines[len(lines)-1]

	dup := path + ".dup"
	if err := os.WriteFile(dup, []byte(strings.Join(append(lines, last), "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, err := ReadCheckpoint(dup)
	if err != nil {
		t.Fatalf("identical duplicate rejected: %v", err)
	}
	if !reflect.DeepEqual(recs, ref.Records) {
		t.Fatal("deduplicated records differ from the originals")
	}

	// Mutate the duplicate's content mid-file: now it must be corruption.
	altered := strings.Replace(last, `"Dataset":"`, `"Dataset":"x`, 1)
	if altered == last {
		t.Fatal("test setup: could not alter the record line")
	}
	bad := path + ".bad"
	body := strings.Join(append(lines, altered, last), "\n") + "\n"
	if err := os.WriteFile(bad, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(bad); err == nil ||
		!strings.Contains(err.Error(), "different content") {
		t.Fatalf("disagreeing duplicate not rejected: %v", err)
	}
}

// TestMergeShardsMatchesSingleRun runs the pool as two shard processes
// would — one checkpoint per shard — and checks the merge is record-for-
// record identical to a single-process build.
func TestMergeShardsMatchesSingleRun(t *testing.T) {
	ref := ckptRefPool(t)
	cfg := ckptConfig()
	dir := t.TempDir()
	paths := make([]string, 2)
	for i := range paths {
		scfg := cfg
		scfg.Shard = ShardSpec{Index: i, Count: 2}
		paths[i] = filepath.Join(dir, fmt.Sprintf("s%d.ckpt", i))
		p, err := ResumePool(context.Background(), scfg, paths[i])
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if want := scfg.Shard.Size(cfg.Scenarios); len(p.Records) != want {
			t.Fatalf("shard %d built %d records, want %d", i, len(p.Records), want)
		}
	}

	merged, err := MergeShards(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Interrupted {
		t.Fatal("complete merge marked interrupted")
	}
	if !reflect.DeepEqual(merged.Records, ref.Records) {
		t.Fatal("merged shards differ from the single-process build")
	}
	if merged.Config.Shard != (ShardSpec{}) {
		t.Fatalf("merged config kept shard %s", merged.Config.Shard)
	}

	// One shard alone is an incomplete pool: flagged, not fabricated.
	half, err := MergeShards(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !half.Interrupted {
		t.Fatal("partial merge not marked interrupted")
	}

	// A shard of a different pool must be refused.
	other := ckptConfig()
	other.Seed++
	otherPath := filepath.Join(dir, "other.ckpt")
	w, err := CreateCheckpoint(otherPath, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := MergeShards(paths[0], otherPath); err == nil ||
		!strings.Contains(err.Error(), "same pool") {
		t.Fatalf("foreign shard not rejected: %v", err)
	}
}

// TestResumeObsInvariant checks the metrics contract of the recovery path:
// pool.checkpoint.resumed + pool.scenarios_executed == shard size, every
// live scenario streamed one checkpoint write, and resumed scenarios count
// toward progress.
func TestResumeObsInvariant(t *testing.T) {
	ref := ckptRefPool(t)
	cfg := ckptConfig()
	path := filepath.Join(t.TempDir(), "pool.ckpt")

	// Seed the checkpoint with the first two completed records, as a killed
	// run would have left it.
	w, err := CreateCheckpoint(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const preloaded = 2
	for i := 0; i < preloaded; i++ {
		rec := ref.Records[i]
		if err := w.Append(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rt := obs.New()
	ctx := obs.NewContext(context.Background(), rt)
	p, err := ResumePool(ctx, cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Records, ref.Records) {
		t.Fatal("observed resume diverged from the reference build")
	}

	snap := rt.Metrics().Snapshot()
	resumed := snap.Counter("pool.checkpoint.resumed")
	executed := snap.Counter("pool.scenarios_executed")
	if resumed != preloaded {
		t.Fatalf("pool.checkpoint.resumed = %d, want %d", resumed, preloaded)
	}
	if resumed+executed != int64(cfg.Scenarios) {
		t.Fatalf("resumed %d + executed %d != scenarios %d", resumed, executed, cfg.Scenarios)
	}
	if writes := snap.Counter("pool.checkpoint.writes"); writes != executed {
		t.Fatalf("pool.checkpoint.writes = %d, want %d (one per executed scenario)", writes, executed)
	}
	if errs := snap.Counter("pool.checkpoint.write_errors"); errs != 0 {
		t.Fatalf("pool.checkpoint.write_errors = %d", errs)
	}
	if planned := snap.Counter("pool.scenarios_planned"); planned != resumed+executed {
		t.Fatalf("pool.scenarios_planned %d != resumed %d + executed %d (resumed records must count toward progress)",
			planned, resumed, executed)
	}
}

// TestShardSpec pins the partitioning arithmetic BuildPoolResumed and the
// -shard flag rely on.
func TestShardSpec(t *testing.T) {
	if err := (ShardSpec{}).Validate(); err != nil {
		t.Fatalf("zero shard invalid: %v", err)
	}
	for _, bad := range []ShardSpec{{Index: -1, Count: 2}, {Index: 2, Count: 2}, {Index: 0, Count: -1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("shard %+v validated", bad)
		}
	}
	const n = 7
	counts := make([]int, n)
	for _, s := range []ShardSpec{{0, 3}, {1, 3}, {2, 3}} {
		size := 0
		for i := 0; i < n; i++ {
			if s.Contains(i) {
				counts[i]++
				size++
			}
		}
		if size != s.Size(n) {
			t.Fatalf("shard %s: size(%d) = %d, but contains %d IDs", s, n, s.Size(n), size)
		}
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("scenario %d claimed by %d shards", i, c)
		}
	}
}
