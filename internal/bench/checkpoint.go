package bench

// Crash-safe checkpointing and sharded execution for pool builds. A
// checkpoint is an append-only JSONL file: a versioned header line carrying
// the (defaulted) Config — so a resume against a different config is
// rejected instead of silently mixing pools — followed by one fsync'd line
// per completed Record. Because scenario execution is order-independent
// (per-subset RNG derivation, see DESIGN.md §4), a pool reassembled from a
// checkpoint, a resume, or a set of shard files is bit-identical to a
// single uninterrupted BuildPool run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"sync"
)

// checkpointMagic and checkpointVersion identify the file format; a header
// with a different magic or version is rejected rather than guessed at.
const (
	checkpointMagic   = "dfs-bench-pool"
	checkpointVersion = 1
)

// checkpointHeader is the first line of every checkpoint file.
type checkpointHeader struct {
	Magic   string `json:"checkpoint"`
	Version int    `json:"version"`
	Config  Config `json:"config"`
}

// EncodeCheckpointHeader renders the one-line checkpoint header for cfg
// (defaulted), newline-terminated: the first line CreateCheckpoint writes.
// The serving layer uses it to open a checkpoint-format NDJSON stream over
// HTTP without a file behind it.
func EncodeCheckpointHeader(cfg Config) ([]byte, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Shard.Validate(); err != nil {
		return nil, err
	}
	hdr, err := json.Marshal(checkpointHeader{Magic: checkpointMagic, Version: checkpointVersion, Config: cfg})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode header: %w", err)
	}
	return append(hdr, '\n'), nil
}

// DecodeCheckpointHeader parses one header line (as produced by
// EncodeCheckpointHeader or found at the top of a checkpoint file),
// rejecting foreign magics and versions. Its errors name no source; the
// caller adds the file or stream the line came from.
func DecodeCheckpointHeader(line []byte) (Config, error) {
	var hdr checkpointHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return Config{}, fmt.Errorf("bad checkpoint header: %w", err)
	}
	if hdr.Magic != checkpointMagic {
		return Config{}, fmt.Errorf("not a pool checkpoint (magic %q)", hdr.Magic)
	}
	if hdr.Version != checkpointVersion {
		return Config{}, fmt.Errorf("checkpoint version %d, this build reads %d", hdr.Version, checkpointVersion)
	}
	return hdr.Config, nil
}

// IdentityMismatch explains the first semantic difference between the
// config a checkpoint was written under and the config trying to use it,
// or returns nil when both describe the same records. Workers, Label, and
// NoEvalSharing are excluded: they change scheduling and physical work
// sharing, never the records (TestPoolSharingDeterminism pins that), so a
// resume may legally change them. compareShard also requires the same
// shard; merging shard files leaves it false.
func IdentityMismatch(have, want Config, compareShard bool) error {
	have, want = have.withDefaults(), want.withDefaults()
	switch {
	case have.Scenarios != want.Scenarios:
		return fmt.Errorf("scenarios %d vs %d", have.Scenarios, want.Scenarios)
	case have.Seed != want.Seed:
		return fmt.Errorf("seed %d vs %d", have.Seed, want.Seed)
	case have.HPO != want.HPO:
		return fmt.Errorf("HPO %v vs %v", have.HPO, want.HPO)
	case have.Mode != want.Mode:
		return fmt.Errorf("mode %d vs %d", have.Mode, want.Mode)
	case have.MaxEvals != want.MaxEvals:
		return fmt.Errorf("max evals %d vs %d", have.MaxEvals, want.MaxEvals)
	case !reflect.DeepEqual(have.Datasets, want.Datasets):
		return fmt.Errorf("dataset lists differ (%d vs %d entries)", len(have.Datasets), len(want.Datasets))
	case have.Sampler != want.Sampler:
		return fmt.Errorf("sampler windows differ")
	case compareShard && have.Shard.normalized() != want.Shard.normalized():
		return fmt.Errorf("shard %s vs %s", have.Shard, want.Shard)
	}
	return nil
}

// CheckpointWriter streams completed records to a checkpoint file. Every
// Append writes one JSON line and fsyncs it, so a crash at any moment
// loses at most the record being written — and that torn tail is detected
// and dropped on resume. Append is safe for concurrent use (scenario
// goroutines finish in arbitrary order); the first failure is latched so a
// full disk surfaces at Close even if the pool kept running.
type CheckpointWriter struct {
	mu   sync.Mutex
	f    *os.File
	path string
	err  error
}

// Append implements RecordSink: one fsync'd JSON line per record.
func (w *CheckpointWriter) Append(rec *Record) error {
	if w == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return w.latch(fmt.Errorf("checkpoint: encode scenario %d: %w", rec.ID, err))
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(data); err != nil {
		return w.latchLocked(fmt.Errorf("checkpoint: write scenario %d: %w", rec.ID, err))
	}
	if err := w.f.Sync(); err != nil {
		return w.latchLocked(fmt.Errorf("checkpoint: sync scenario %d: %w", rec.ID, err))
	}
	return nil
}

// Close syncs and closes the file, returning the first failure seen over
// the writer's lifetime (a close error is a write error on buffered
// filesystems, so it must not be dropped).
func (w *CheckpointWriter) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	first := w.err
	if err := w.f.Sync(); err != nil && first == nil {
		first = fmt.Errorf("checkpoint: sync %s: %w", w.path, err)
	}
	if err := w.f.Close(); err != nil && first == nil {
		first = fmt.Errorf("checkpoint: close %s: %w", w.path, err)
	}
	return first
}

func (w *CheckpointWriter) latch(err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.latchLocked(err)
}

func (w *CheckpointWriter) latchLocked(err error) error {
	if w.err == nil {
		w.err = err
	}
	return err
}

// CreateCheckpoint starts a fresh checkpoint for cfg at path. It refuses to
// overwrite an existing file — losing a previous run's records silently is
// exactly the failure checkpointing exists to prevent; resume it or remove
// it explicitly.
func CreateCheckpoint(path string, cfg Config) (*CheckpointWriter, error) {
	hdr, err := EncodeCheckpointHeader(cfg)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("checkpoint: %s already exists; resume it or remove it first", path)
		}
		return nil, err
	}
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: write header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: sync header: %w", err)
	}
	return &CheckpointWriter{f: f, path: path}, nil
}

// ResumeCheckpoint opens the checkpoint at path for cfg, returning a writer
// positioned after the last intact record plus the records already
// completed (deduplicated, sorted by scenario ID) for BuildPoolResumed to
// skip. A missing file starts a fresh checkpoint, so retry loops need no
// first-run special case. A header whose config does not match cfg
// (including the shard) is rejected. A torn trailing line — the footprint
// of a crash mid-write — is dropped and truncated away before appending
// resumes.
func ResumeCheckpoint(path string, cfg Config) (*CheckpointWriter, []Record, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Shard.Validate(); err != nil {
		return nil, nil, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		w, err := CreateCheckpoint(path, cfg)
		return w, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	have, records, goodLen, err := parseCheckpoint(path, data)
	if err != nil {
		return nil, nil, err
	}
	if err := IdentityMismatch(have, cfg, true); err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %s was written under a different config (%v); refusing to resume", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	// Truncate the torn tail (and any dropped duplicate suffix) so the next
	// Append lands right after the last intact record.
	if err := f.Truncate(int64(goodLen)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("checkpoint: truncate torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(int64(goodLen), 0); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &CheckpointWriter{f: f, path: path}, records, nil
}

// ReadCheckpoint loads a checkpoint file without opening it for writing:
// the header's config and the intact, deduplicated records sorted by
// scenario ID. MergeShards and post-hoc analyses use this.
func ReadCheckpoint(path string) (Config, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, nil, err
	}
	cfg, records, _, err := parseCheckpoint(path, data)
	return cfg, records, err
}

// parseCheckpoint decodes a checkpoint file body: the header's config, the
// intact records (deduplicated by ID, sorted), and the byte length of the
// intact prefix. Only the final line may be torn — Append writes
// line+newline in one call and fsyncs, so a crash leaves at most one
// partial line at the tail; an unparseable line anywhere else is
// corruption and errors out. Duplicate IDs keep the first occurrence; a
// duplicate that disagrees with the first is corruption too.
func parseCheckpoint(path string, data []byte) (Config, []Record, int, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return Config{}, nil, 0, fmt.Errorf("checkpoint: %s has no intact header line", path)
	}
	hcfg, err := DecodeCheckpointHeader(data[:nl])
	if err != nil {
		return Config{}, nil, 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	cfg := hcfg.withDefaults()
	seen := make(map[int]Record)
	var records []Record
	goodLen := nl + 1
	rest := data[goodLen:]
	for len(rest) > 0 {
		nl := bytes.IndexByte(rest, '\n')
		if nl < 0 {
			// No trailing newline: the single-write append was cut short.
			break
		}
		line := rest[:nl]
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			if len(rest) == nl+1 {
				// A final newline-terminated but unparseable line: possible
				// after power loss (pages persist out of order before the
				// fsync completed). Drop it like an unterminated tail.
				break
			}
			return Config{}, nil, 0, fmt.Errorf("checkpoint: %s: corrupt record line before the tail: %w", path, err)
		}
		if rec.ID < 0 || rec.ID >= cfg.Scenarios {
			return Config{}, nil, 0, fmt.Errorf("checkpoint: %s: scenario ID %d outside [0,%d)", path, rec.ID, cfg.Scenarios)
		}
		if !cfg.Shard.Contains(rec.ID) {
			return Config{}, nil, 0, fmt.Errorf("checkpoint: %s: scenario %d does not belong to shard %s", path, rec.ID, cfg.Shard)
		}
		if prev, ok := seen[rec.ID]; ok {
			if !reflect.DeepEqual(prev, rec) {
				return Config{}, nil, 0, fmt.Errorf("checkpoint: %s: scenario %d appears twice with different content", path, rec.ID)
			}
			// Identical duplicate (e.g. a resume replayed an append after a
			// partially-observed crash): keep the first, advance past it.
		} else {
			records = append(records, rec)
			seen[rec.ID] = rec
		}
		rest = rest[nl+1:]
		goodLen += nl + 1
	}
	sort.Slice(records, func(i, j int) bool { return records[i].ID < records[j].ID })
	return hcfg, records, goodLen, nil
}

// ResumePool resumes a checkpointed run end-to-end: load the checkpoint at
// path (creating it when absent), execute only the missing scenarios of
// cfg's shard while streaming them to the same file, and return the pool —
// record-for-record identical to an uninterrupted BuildPool of cfg.
func ResumePool(ctx context.Context, cfg Config, path string) (*Pool, error) {
	w, resumed, err := ResumeCheckpoint(path, cfg)
	if err != nil {
		return nil, err
	}
	p, err := BuildPoolResumed(ctx, cfg, RunOptions{Resume: resumed, Sink: w})
	if cerr := w.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

// MergeShards reassembles one pool from the checkpoint files of a sharded
// run. Every file must carry the same config identity (shard excepted);
// records are deduplicated across files (disagreeing duplicates are
// corruption), re-sorted by scenario ID, and the merged pool's config drops
// the shard so it reads as a whole-pool build. When scenarios are missing —
// a shard was interrupted or a file is absent — the pool is returned with
// Interrupted set rather than inventing records.
func MergeShards(paths ...string) (*Pool, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("checkpoint: no shard files to merge")
	}
	var base Config
	byID := make(map[int]Record)
	for i, path := range paths {
		cfg, records, err := ReadCheckpoint(path)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = cfg.withDefaults()
			base.Shard = ShardSpec{}
		} else if err := IdentityMismatch(cfg, base, false); err != nil {
			return nil, fmt.Errorf("checkpoint: %s does not belong to the same pool as %s (%v)", path, paths[0], err)
		}
		for _, rec := range records {
			if prev, ok := byID[rec.ID]; ok {
				if !reflect.DeepEqual(prev, rec) {
					return nil, fmt.Errorf("checkpoint: scenario %d differs between shard files", rec.ID)
				}
				continue
			}
			byID[rec.ID] = rec
		}
	}
	pool := &Pool{Config: base}
	for id := 0; id < base.Scenarios; id++ {
		if rec, ok := byID[id]; ok {
			pool.Records = append(pool.Records, rec)
		}
	}
	pool.Interrupted = len(pool.Records) != base.Scenarios
	return pool, nil
}
