// Package evalstore is the durable, content-addressed evaluation cache: a
// crash-safe, append-only store of trained-subset results shared across
// runs, shards, and server restarts. It is the disk tier beneath
// core.SharedMemo (memory → disk → train): a hit replays the full simulated
// cost exactly like an in-memory memo hit, so records stay bit-identical to
// cold runs — only the physical model fitting is skipped.
//
// Layout: one directory holds numbered write-ahead segments (seg-NNNNNN.wal).
// Every segment is a versioned JSON header line followed by binary frames,
// one self-contained record each — u32 LE payload length, u32 LE CRC-32C of
// the payload, then the payload (codec.go) — written append-only and fsync'd
// per flush batch, so a torn tail after a crash loses at most the last
// unflushed batch (this is a cache; the entries are recomputable).
//
// Concurrency: each Open creates its own segment (O_EXCL) and holds an
// exclusive flock on it for its lifetime, so any number of processes share
// one directory without write contention — single writer per segment,
// many readers per store. Loading scans every segment; identical keys are
// identical by construction (the key is a content address), so cross-segment
// duplicates merge trivially, preferring the test-confirmed record.
// Compaction (at Open, once enough sealed segments accumulate) rewrites the
// segments no live process holds locked into one deduplicated segment under
// a directory-wide compact.lock.
package evalstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/obs"
)

// Key is the content address of one evaluation: the scenario's content hash
// (dataset split bytes + constraints + mode, see core.Scenario.ContentHash)
// plus the bit-packed subset fingerprint the in-memory memo already uses.
// Two runs that arrive at the same Key trained the same model grid on the
// same data under the same random draws, so the stored result is exact.
type Key struct {
	Scenario uint64  // scenario/dataset content hash
	Mask     string  // bit-packed selected-feature mask (raw bytes)
	Kind     string  // model kind (LR, NB, DT, SVM)
	HPO      bool    // hyperparameter grid trained?
	Eps      float64 // differential-privacy ε (pins DP noise draws)
	Seed     uint64  // evaluator seed (pins all random draws)
}

// Result is the physical outcome of training one subset — the mirror of
// core's physical struct. Float64 values are stored as their IEEE-754 bits,
// so they replay bit-exactly, which the bit-identical replay guarantee
// relies on. Non-finite values are never persisted (see Put).
type Result struct {
	Val        constraint.Scores
	ValCustom  []float64
	Test       constraint.Scores
	TestCustom []float64
	HasTest    bool
	// Blob carries an opaque payload for non-evaluation namespaces keyed
	// under a reserved Kind (the "rank:<family>" ranking cache, bench's
	// "record:v1" completed-scenario cache). Evaluation entries leave it nil.
	Blob []byte
}

const (
	segMagic   = "dfs-evalstore"
	segVersion = 2
	segPrefix  = "seg-"
	segSuffix  = ".wal"

	// defaultCompactAt is the number of sealed segments that triggers a
	// compaction at Open: low enough that abandoned segments from many
	// short-lived shard processes fold away, high enough that steady
	// single-process reruns never pay for rewriting.
	defaultCompactAt = 8
)

// Options configure Open.
type Options struct {
	// Metrics, when non-nil, registers the store-level obs counters
	// (evalstore.wal_bytes, evalstore.compactions) and the scrape-time size
	// gauges published by SyncGauges (evalstore.entries / .segments /
	// .segment_bytes), alongside the evaluator-side
	// evalstore.lookups/hits_mem/hits_disk/misses family.
	Metrics *obs.Registry

	// Test seam: compactAt overrides the sealed-segment count that triggers
	// compaction at Open (0 = defaultCompactAt; negative disables it).
	compactAt int
}

// Stats is a point-in-time snapshot of one Store's activity since Open.
type Stats struct {
	Entries      int    // distinct keys in the in-memory index
	Segments     int    // segments loaded at Open (before compaction/creation)
	HitsDisk     uint64 // lookups answered by the index
	Misses       uint64 // lookups not in the index
	Puts         uint64 // new or upgraded entries accepted
	WALBytes     uint64 // bytes appended (and fsync'd) to this process's segment
	Compactions  uint64 // segment compactions performed
	CorruptLines uint64 // segments cut short at a corrupt frame or skipped for their header (torn tails excluded)
	DroppedPuts  uint64 // puts never persisted: non-finite values or a latched write error
}

// Store is one process's handle on the shared evaluation cache: the full
// in-memory index plus an exclusively owned append segment. Lookup and Put
// are safe for concurrent use by any number of goroutines.
type Store struct {
	dir string

	mu    sync.RWMutex
	index map[Key]Result

	// wmu guards the pending write-behind buffer and the segment file.
	// Put only appends a frame to pending under wmu — the fsync happens on
	// the flusher goroutine (or in Flush/Close), off the training hot path.
	wmu         sync.Mutex
	seg         *os.File
	pending     []byte
	pendingPuts int   // frames in pending
	werr        error // latched write error; further puts are dropped

	kick chan struct{}
	quit chan struct{}
	done chan struct{}

	closeOnce sync.Once
	closeErr  error

	segsLoaded int
	hits       atomic.Uint64
	misses     atomic.Uint64
	puts       atomic.Uint64
	walBytes   atomic.Uint64
	compacts   atomic.Uint64
	corrupt    atomic.Uint64
	dropped    atomic.Uint64

	mWALBytes *obs.Counter
	mCompacts *obs.Counter

	// Scrape-time gauges, refreshed by SyncGauges (nil without a registry).
	gEntries  *obs.Gauge
	gSegments *obs.Gauge
	gSegBytes *obs.Gauge
}

// Open loads (or creates) the store directory: scans every segment into the
// in-memory index, compacts sealed segments when enough have accumulated,
// and creates this process's own exclusively locked append segment.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("evalstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	s := &Store{
		dir:       dir,
		index:     make(map[Key]Result),
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		mWALBytes: opts.Metrics.Counter("evalstore.wal_bytes"),
		mCompacts: opts.Metrics.Counter("evalstore.compactions"),
		gEntries:  opts.Metrics.Gauge("evalstore.entries"),
		gSegments: opts.Metrics.Gauge("evalstore.segments"),
		gSegBytes: opts.Metrics.Gauge("evalstore.segment_bytes"),
	}
	segs, maxSeq, err := s.scan()
	if err != nil {
		return nil, err
	}
	s.segsLoaded = len(segs)

	compactAt := opts.compactAt
	if compactAt == 0 {
		compactAt = defaultCompactAt
	}
	if compactAt > 0 && len(segs) >= compactAt {
		if n, err := s.compact(segs, maxSeq+1); err == nil && n > 0 {
			maxSeq++
		}
		// A compaction failure (lock contention, concurrent opener) is not
		// an Open failure: the uncompacted segments remain fully readable.
	}

	if err := s.createSegment(maxSeq + 1); err != nil {
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// compactLockName is the directory-wide lock file: compactors hold it
// exclusively while rewriting and deleting sealed segments; scans hold it
// shared so the segment list they glob stays readable end to end.
const compactLockName = "compact.lock"

// scan loads every existing segment into the index and returns the segment
// paths plus the highest sequence number seen.
func (s *Store) scan() ([]string, int, error) {
	// A concurrent compactor folds sealed segments into a merged segment
	// created AFTER our ReadDir, then deletes the originals — without
	// exclusion, this scan would tolerate the deletions (loadSegment treats
	// a vanished file as empty) and silently lose every entry that moved.
	// Holding the compact lock shared for the scan's duration blocks that:
	// compactors take it exclusively (and skip quietly when scans hold it).
	if lock, err := os.OpenFile(filepath.Join(s.dir, compactLockName), os.O_CREATE|os.O_RDONLY, 0o644); err == nil {
		if flockShared(lock) == nil {
			defer lock.Close() // closing the descriptor releases the lock
		} else {
			lock.Close()
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, fmt.Errorf("evalstore: %w", err)
	}
	var segs []string
	maxSeq := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		if seq, err := parseSeq(name); err == nil && seq > maxSeq {
			maxSeq = seq
		}
		segs = append(segs, filepath.Join(s.dir, name))
	}
	sort.Strings(segs)
	for _, path := range segs {
		if err := s.loadSegment(path); err != nil {
			return nil, 0, err
		}
	}
	return segs, maxSeq, nil
}

func segName(seq int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix) }

func parseSeq(name string) (int, error) {
	var seq int
	_, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &seq)
	return seq, err
}

// loadSegment merges one segment's records into the index. Damage is
// tolerated, never fatal: a foreign or other-versioned header skips the
// file, a torn tail is dropped silently — that is the normal crash
// signature — and a corrupt frame abandons the rest of that segment,
// keeping the valid prefix and every other segment; either damage counts
// one corrupt line. A segment deleted between ReadDir and here (a
// concurrent compactor won the race) is treated as empty.
func (s *Store) loadSegment(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("evalstore: %w", err)
	}
	if decodeSegment(data, func(k Key, r Result) { s.merge(k, r) }) {
		s.corrupt.Add(1)
	}
	return nil
}

// merge inserts a record, preferring the test-confirmed variant of a key.
// Identical keys carry identical payloads by construction (the key is a
// content address); HasTest is the only upgrade.
func (s *Store) merge(k Key, r Result) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.index[k]; ok && (old.HasTest || !r.HasTest) {
		return false
	}
	s.index[k] = r
	return true
}

// createSegment creates this process's own append segment, retrying upward
// through sequence numbers until an O_EXCL create wins, and locks it
// exclusively for the store's lifetime.
func (s *Store) createSegment(seq int) error {
	for ; ; seq++ {
		path := filepath.Join(s.dir, segName(seq))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return fmt.Errorf("evalstore: %w", err)
		}
		if err := flockExclusive(f); err != nil {
			f.Close()
			return fmt.Errorf("evalstore: locking own segment %s: %w", path, err)
		}
		_, err = f.Write(headerLine)
		if err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("evalstore: %w", err)
		}
		s.seg = f
		return nil
	}
}

// compact rewrites every sealed segment (one no live process holds locked)
// into a single deduplicated segment, then removes the originals. The
// directory-wide compact.lock serializes compactors; losing that race — or
// finding fewer than two sealed segments — skips quietly.
func (s *Store) compact(segs []string, seq int) (int, error) {
	lock, err := os.OpenFile(filepath.Join(s.dir, compactLockName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer lock.Close()
	if err := flockTryExclusive(lock); err != nil {
		return 0, err
	}

	// A segment we can flock has no live writer: flock conflicts even with
	// this process's own active segment, because a fresh descriptor of the
	// same file locks independently.
	var sealed []string
	var locks []*os.File
	defer func() {
		for _, f := range locks {
			f.Close()
		}
	}()
	for _, path := range segs {
		f, err := os.Open(path)
		if err != nil {
			continue
		}
		if err := flockTryExclusive(f); err != nil {
			f.Close()
			continue
		}
		sealed = append(sealed, path)
		locks = append(locks, f)
	}
	if len(sealed) < 2 {
		return 0, nil
	}

	// The sealed segments' union is re-read (rather than dumping the whole
	// index) so entries owned by live segments are not duplicated.
	merged := &Store{index: make(map[Key]Result)}
	for _, path := range sealed {
		if err := merged.loadSegment(path); err != nil {
			return 0, err
		}
	}
	keys := make([]Key, 0, len(merged.index))
	for k := range merged.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return 0, err
	}
	buf := bytes.Clone(headerLine)
	for _, k := range keys {
		buf, _ = appendRecord(buf, k, merged.index[k]) // loaded entries are finite
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	for _, old := range sealed {
		os.Remove(old)
	}
	s.compacts.Add(1)
	s.mCompacts.Inc()
	return len(sealed), nil
}

func keyLess(a, b Key) bool {
	if a.Scenario != b.Scenario {
		return a.Scenario < b.Scenario
	}
	if a.Mask != b.Mask {
		return a.Mask < b.Mask
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.HPO != b.HPO {
		return !a.HPO
	}
	if a.Eps != b.Eps {
		return a.Eps < b.Eps
	}
	return a.Seed < b.Seed
}

// Lookup returns the stored result for the key, if any.
func (s *Store) Lookup(k Key) (Result, bool) {
	s.mu.RLock()
	r, ok := s.index[k]
	s.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return r, ok
}

// Put records a result. The in-memory index is updated immediately (so
// sibling lookups hit without waiting for disk); the WAL append is
// write-behind — batched and fsync'd by the flusher goroutine — so the
// training hot path never blocks on disk. A crash can lose at most the
// last unflushed batch, which only costs recomputation. A result holding a
// NaN or infinite value stays in the index but is never persisted; it
// counts as a dropped put.
func (s *Store) Put(k Key, r Result) {
	if !s.merge(k, r) {
		return
	}
	s.puts.Add(1)
	s.wmu.Lock()
	var err error
	if s.pending, err = appendRecord(s.pending, k, r); err == nil {
		s.pendingPuts++
	}
	s.wmu.Unlock()
	if err != nil {
		s.dropped.Add(1)
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

func (s *Store) flusher() {
	defer close(s.done)
	for {
		select {
		case <-s.kick:
			s.flushOnce()
		case <-s.quit:
			s.flushOnce()
			return
		}
	}
}

// flushOnce appends and fsyncs the pending batch. Write errors latch: the
// store keeps serving lookups, further puts are dropped and counted.
func (s *Store) flushOnce() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.werr != nil {
		s.dropped.Add(uint64(s.pendingPuts))
		s.pending, s.pendingPuts = s.pending[:0], 0
		return s.werr
	}
	if len(s.pending) == 0 {
		return nil
	}
	if _, err := s.seg.Write(s.pending); err != nil {
		s.werr = err
		return err
	}
	if err := s.seg.Sync(); err != nil {
		s.werr = err
		return err
	}
	s.walBytes.Add(uint64(len(s.pending)))
	s.mWALBytes.Add(int64(len(s.pending)))
	s.pending, s.pendingPuts = s.pending[:0], 0
	return nil
}

// Flush forces every pending put to durable storage before returning.
func (s *Store) Flush() error { return s.flushOnce() }

// Close flushes, releases the segment lock, and closes the segment. Safe to
// call more than once.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.done
		err := s.flushOnce()
		if s.seg != nil {
			if cerr := s.seg.Close(); err == nil {
				err = cerr
			}
		}
		s.closeErr = err
	})
	return s.closeErr
}

// SyncGauges publishes the store's point-in-time sizes — index entries,
// segments loaded at Open, and bytes across every segment file currently on
// disk — as registry gauges (evalstore.entries / .segments /
// .segment_bytes). Unlike the wal_bytes/compactions counters these have no
// natural increment stream, so they are refreshed at scrape time
// (GET /metrics) rather than on the Put hot path. No-op when the store was
// opened without a metrics registry.
func (s *Store) SyncGauges() {
	if s.gEntries == nil {
		return
	}
	st := s.Stats()
	s.gEntries.Set(int64(st.Entries))
	s.gSegments.Set(int64(st.Segments))
	var total int64
	if matches, err := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix)); err == nil {
		for _, m := range matches {
			if fi, err := os.Stat(m); err == nil {
				total += fi.Size()
			}
		}
	}
	s.gSegBytes.Set(total)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	entries := len(s.index)
	s.mu.RUnlock()
	return Stats{
		Entries:      entries,
		Segments:     s.segsLoaded,
		HitsDisk:     s.hits.Load(),
		Misses:       s.misses.Load(),
		Puts:         s.puts.Load(),
		WALBytes:     s.walBytes.Load(),
		Compactions:  s.compacts.Load(),
		CorruptLines: s.corrupt.Load(),
		DroppedPuts:  s.dropped.Load(),
	}
}

// String renders the stats line cmd/benchmark prints at exit (and the CI
// evalstore-smoke job parses).
func (st Stats) String() string {
	return fmt.Sprintf("entries=%d segments=%d hits_disk=%d misses=%d puts=%d wal_bytes=%d compactions=%d corrupt_lines=%d dropped_puts=%d",
		st.Entries, st.Segments, st.HitsDisk, st.Misses, st.Puts, st.WALBytes, st.Compactions, st.CorruptLines, st.DroppedPuts)
}
