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
// many readers per store. Compaction (at Open, once enough sealed segments
// accumulate) first rewrites the segments no live process holds locked into
// one deduplicated segment under a directory-wide compact.lock; loading then
// scans every segment into an index of frame locators, keeping each file
// open, and a lookup reads its frame back from the segment. Identical keys
// are identical by construction (the key is a content address), so
// cross-segment duplicates merge trivially, preferring the test-confirmed
// record.
package evalstore

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math"
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
	Entries      int    // distinct keys this handle serves
	Segments     int    // segments loaded at Open (after compaction, before its own)
	HitsDisk     uint64 // lookups answered by the index
	Misses       uint64 // lookups not in the index
	Puts         uint64 // new or upgraded entries accepted
	WALBytes     uint64 // bytes appended (and fsync'd) to this process's segment
	Compactions  uint64 // segment compactions performed
	CorruptLines uint64 // segments cut short at a corrupt frame, or skipped for their header or past the open-segment cap (torn tails excluded)
	DroppedPuts  uint64 // puts never persisted: non-finite values or a latched write error
}

// Store is one process's handle on the shared evaluation cache: an index of
// frame locators over every loaded segment plus an exclusively owned append
// segment. Lookup and Put are safe for concurrent use by any number of
// goroutines.
type Store struct {
	dir  string
	seed maphash.Seed // keyHash's seed, fresh per handle

	// files are the segments loaded at Open, read-only, then this handle's
	// own segment, files[own] == seg. A locator's seg indexes files, which
	// is fixed once Open returns.
	files []*os.File
	own   uint16

	mu    sync.RWMutex
	index map[uint64]locator // by keyHash
	mem   map[Key]Result     // non-finite puts: served, never persisted

	// wmu guards the pending write-behind batch, the written offset and the
	// latched error. Put only appends a frame to pending under wmu; the
	// flusher writes a batch under wmu and fsyncs it under fmu alone, so a
	// Put or Lookup waits at most for a page-cache write, never an fsync.
	wmu         sync.Mutex
	seg         *os.File
	pending     []byte
	pendingPuts int   // frames in pending
	written     int64 // bytes of seg in the file; pending starts here
	werr        error // latched write or fsync error; further puts are dropped

	fmu    sync.Mutex // serializes flushes
	synced int64      // bytes of seg fsync'd (under fmu)

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

// locator says where one indexed frame lies — its segment (an index into
// Store.files), its offset there and its payload length — and carries its
// HasTest flag, which decides upgrades without reading the frame. Sixteen
// bytes per entry, where a decoded Key and Result held about 300.
type locator struct {
	off     int64
	n       uint32
	seg     uint16
	hasTest bool
}

// frameBufs holds Lookup's read buffers. A frame up to frameBufLen bytes —
// every evaluation entry and most rankings — reuses one; a larger frame (a
// record blob) gets a buffer of its own. They are pooled rather than on the
// stack because the checksum makes any buffer it reads escape.
const frameBufLen = 2048

var frameBufs = sync.Pool{New: func() any { return new([frameBufLen]byte) }}

// Open compacts the store directory's sealed segments when enough have
// accumulated, then indexes every segment and creates this process's own
// exclusively locked append segment. It creates the directory if needed.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("evalstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("evalstore: %w", err)
	}
	s := &Store{
		dir:       dir,
		seed:      maphash.MakeSeed(),
		index:     make(map[uint64]locator),
		mem:       make(map[Key]Result),
		kick:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		mWALBytes: opts.Metrics.Counter("evalstore.wal_bytes"),
		mCompacts: opts.Metrics.Counter("evalstore.compactions"),
		gEntries:  opts.Metrics.Gauge("evalstore.entries"),
		gSegments: opts.Metrics.Gauge("evalstore.segments"),
		gSegBytes: opts.Metrics.Gauge("evalstore.segment_bytes"),
	}
	compactAt := opts.compactAt
	if compactAt == 0 {
		compactAt = defaultCompactAt
	}
	if compactAt > 0 {
		segs, maxSeq, err := listSegments(dir)
		if err != nil {
			return nil, err
		}
		if len(segs) >= compactAt {
			// A compaction failure (lock contention, concurrent opener) is
			// not an Open failure: the uncompacted segments stay readable.
			_ = s.compact(segs, maxSeq+1)
		}
	}
	// Loading after compacting means the index never points into a file
	// this Open deleted.
	maxSeq, err := s.load()
	if err == nil {
		err = s.createSegment(maxSeq + 1)
	}
	if err != nil {
		s.closeFiles()
		return nil, err
	}
	go s.flusher()
	return s, nil
}

// compactLockName is the directory-wide lock file: compactors hold it
// exclusively while rewriting and deleting sealed segments; loads hold it
// shared so the segments they list stay readable end to end.
const compactLockName = "compact.lock"

// load indexes every segment in the directory and returns the highest
// sequence number seen.
func (s *Store) load() (int, error) {
	// A concurrent compactor folds sealed segments into a merged segment
	// created AFTER our listing, then deletes the originals — without
	// exclusion, this load would tolerate the deletions (loadSegment treats
	// a vanished file as empty) and silently lose every entry that moved.
	// Holding the compact lock shared for the load's duration blocks that:
	// compactors take it exclusively (and skip quietly when loads hold it).
	// Once loaded, a segment a later compactor deletes stays readable
	// through its open descriptor.
	if lock, err := os.OpenFile(filepath.Join(s.dir, compactLockName), os.O_CREATE|os.O_RDONLY, 0o644); err == nil {
		if flockShared(lock) == nil {
			defer lock.Close() // closing the descriptor releases the lock
		} else {
			lock.Close()
		}
	}
	segs, maxSeq, err := listSegments(s.dir)
	if err != nil {
		return 0, err
	}
	s.segsLoaded = len(segs)
	var buf []byte
	for _, path := range segs {
		if buf, err = s.loadSegment(path, buf); err != nil {
			return 0, err
		}
	}
	return maxSeq, nil
}

// listSegments returns the directory's segment paths in sequence order plus
// the highest sequence number among them.
func listSegments(dir string) ([]string, int, error) {
	entries, err := os.ReadDir(dir)
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
		segs = append(segs, filepath.Join(dir, name))
	}
	sort.Strings(segs)
	return segs, maxSeq, nil
}

func segName(seq int) string { return fmt.Sprintf("%s%06d%s", segPrefix, seq, segSuffix) }

func parseSeq(name string) (int, error) {
	var seq int
	_, err := fmt.Sscanf(name, segPrefix+"%d"+segSuffix, &seq)
	return seq, err
}

// loadSegment indexes one segment's frames, reading the file into buf
// (grown to the size Stat reports, and returned for the next segment), and
// keeps the file open when any of them entered the index. Damage is
// tolerated, never fatal: a foreign or other-versioned header skips the
// file, a torn tail is dropped silently — that is the normal crash
// signature — and a corrupt frame abandons the rest of that segment,
// keeping the valid prefix and every other segment; either damage counts
// one corrupt line. So does a segment past maxLoaded, which is skipped
// unread, so its entries miss. A segment deleted between the listing and
// here (a concurrent compactor won the race) is treated as empty.
func (s *Store) loadSegment(path string, buf []byte) ([]byte, error) {
	if len(s.files) == maxLoaded {
		s.corrupt.Add(1)
		return buf, nil
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return buf, nil
	}
	if err != nil {
		return buf, fmt.Errorf("evalstore: %w", err)
	}
	data, err := readAll(f, buf)
	if err != nil {
		f.Close()
		return buf, fmt.Errorf("evalstore: %w", err)
	}
	seg, used := uint16(len(s.files)), false
	if scanSegment(data, func(off int, n uint32, rec record) {
		loc := locator{off: int64(off), n: n, seg: seg, hasTest: rec.hasTest}
		h := hashKey(s.seed, rec.scenario, rec.seed, rec.eps, rec.hpo, rec.mask, rec.kind)
		used = s.insert(h, loc) || used
	}) {
		s.corrupt.Add(1)
	}
	if used {
		s.files = append(s.files, f)
	} else {
		f.Close()
	}
	return data, nil
}

// maxLoaded is the most segments one handle keeps open for reading: a
// locator's 16-bit segment index must also fit the handle's own segment.
// Compaction keeps a directory far below it wherever file locks work.
const maxLoaded = math.MaxUint16

// readAll reads f whole into buf, grown to the size Stat reports. Bytes a
// live writer appends after the Stat are left for a later Open.
func readAll(f *os.File, buf []byte) ([]byte, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if int64(cap(buf)) < fi.Size() {
		buf = make([]byte, fi.Size())
	}
	n, err := io.ReadFull(f, buf[:fi.Size()])
	if err == io.ErrUnexpectedEOF {
		err = nil
	}
	return buf[:n], err
}

// upgrades reports whether a record with HasTest flag hasTest replaces a
// stored one of the same key with flag old: a key is stored once, and only
// a test-confirmed record replaces a val-only one.
func upgrades(old, hasTest bool) bool { return !old && hasTest }

// insert indexes a frame under its key's hash unless the slot already holds
// one the frame does not upgrade. A hash collision between two keys can
// only cost a miss (Lookup compares the full stored key) or a put that is
// deduplicated or replaces, never a wrong result.
func (s *Store) insert(h uint64, loc locator) bool {
	if old, ok := s.index[h]; ok && !upgrades(old.hasTest, loc.hasTest) {
		return false
	}
	s.index[h] = loc
	return true
}

// keyHash is a Key's index slot under the handle's seed.
func (s *Store) keyHash(k Key) uint64 {
	return hashKey(s.seed, k.Scenario, k.Seed, k.Eps, k.HPO, k.Mask, k.Kind)
}

// hashKey is the one hash of a key's fields, whether they come from a Key
// or from a parsed frame's byte slices, so the two always agree. The mask's
// length separates the mask from the kind that follows it, and ε is hashed
// by value, so 0 and -0 (equal keys) share a slot.
func hashKey[T string | []byte](seed maphash.Seed, scenario, keySeed uint64, eps float64, hpo bool, mask, kind T) uint64 {
	var b [33]byte
	le.PutUint64(b[0:], scenario)
	le.PutUint64(b[8:], keySeed)
	if eps != 0 {
		le.PutUint64(b[16:], math.Float64bits(eps))
	}
	le.PutUint64(b[24:], uint64(len(mask)))
	if hpo {
		b[32] = 1
	}
	var h maphash.Hash
	h.SetSeed(seed)
	h.Write(b[:])
	writeBytes(&h, mask)
	writeBytes(&h, kind)
	return h.Sum64()
}

// writeBytes adds a string's or a byte slice's bytes to h without copying.
func writeBytes[T string | []byte](h *maphash.Hash, v T) {
	switch v := any(v).(type) {
	case string:
		h.WriteString(v)
	case []byte:
		h.Write(v)
	}
}

// createSegment creates this process's own append segment, retrying upward
// through sequence numbers until an O_EXCL create wins, and locks it
// exclusively for the store's lifetime.
func (s *Store) createSegment(seq int) error {
	for ; ; seq++ {
		path := filepath.Join(s.dir, segName(seq))
		// Read-write, because Lookup preads this handle's own frames back.
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
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
		s.seg, s.own = f, uint16(len(s.files))
		s.files = append(s.files, f)
		s.written = int64(len(headerLine))
		s.synced = s.written
		return nil
	}
}

// compact rewrites every sealed segment (one no live process holds locked)
// into a single deduplicated segment, then removes the originals. The
// directory-wide compact.lock serializes compactors; losing that race — or
// finding fewer than two sealed segments — skips quietly.
func (s *Store) compact(segs []string, seq int) error {
	lock, err := os.OpenFile(filepath.Join(s.dir, compactLockName), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer lock.Close()
	if err := flockTryExclusive(lock); err != nil {
		return err
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
		return nil
	}

	// Only the sealed segments are merged, so entries owned by live
	// segments are not duplicated.
	merged := make(map[Key]Result)
	var buf []byte
	for _, f := range locks {
		if buf, err = readAll(f, buf); err != nil {
			return err
		}
		decodeSegment(buf, func(k Key, r Result) { mergeRecord(merged, k, r) })
	}
	keys := make([]Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	buf = append(buf[:0], headerLine...)
	for _, k := range keys {
		buf, _ = appendRecord(buf, k, merged[k]) // decoded entries are finite
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return err
	}
	for _, old := range sealed {
		os.Remove(old)
	}
	s.compacts.Add(1)
	s.mCompacts.Inc()
	return nil
}

// mergeRecord adds a decoded record to m under the upgrade rule.
func mergeRecord(m map[Key]Result, k Key, r Result) {
	if old, ok := m[k]; ok && !upgrades(old.HasTest, r.HasTest) {
		return
	}
	m[k] = r
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

// Lookup returns the stored result for the key, if any. It reads the frame
// back — from the pending batch or from its segment — and rechecks its
// length and checksum; a frame that fails either, or that holds another
// key, is a miss. The result's slices are the caller's own.
func (s *Store) Lookup(k Key) (Result, bool) {
	r, ok := s.lookup(k)
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return r, ok
}

func (s *Store) lookup(k Key) (Result, bool) {
	h := s.keyHash(k)
	s.mu.RLock()
	loc, ok := s.index[h]
	r, inMem := s.mem[k]
	s.mu.RUnlock()
	if inMem {
		return cloneResult(r), true
	}
	if !ok {
		return Result{}, false
	}
	buf := frameBufs.Get().(*[frameBufLen]byte)
	defer frameBufs.Put(buf)
	frame, ok := s.readFrame(loc, buf[:])
	if !ok {
		return Result{}, false
	}
	rec, ok := parseFrame(frame)
	if !ok || !rec.is(k) {
		return Result{}, false
	}
	return rec.result(), true
}

// readFrame reads the frame loc points at into buf, or into a new buffer
// when it does not fit. A frame of this handle's own segment that the
// flusher has not written yet is copied out of the pending batch; one it
// has written is read from the file, fsync'd or not. A frame whose batch a
// write error dropped is gone.
func (s *Store) readFrame(loc locator, buf []byte) ([]byte, bool) {
	size := frameHeaderLen + int64(loc.n)
	if size > int64(len(buf)) {
		buf = make([]byte, size)
	}
	frame := buf[:size]
	f := s.files[loc.seg]
	if f == s.seg {
		s.wmu.Lock()
		if rel := loc.off - s.written; rel >= 0 {
			ok := rel+size <= int64(len(s.pending))
			if ok {
				copy(frame, s.pending[rel:])
			}
			s.wmu.Unlock()
			return frame, ok
		}
		s.wmu.Unlock()
	}
	_, err := f.ReadAt(frame, loc.off)
	return frame, err == nil
}

// Put records a result. The frame joins the pending batch and the index at
// once (so sibling lookups hit without waiting for disk); the WAL append is
// write-behind — batched, written and fsync'd by the flusher goroutine — so
// the training hot path never blocks on disk. A crash can lose at most the
// last unflushed batch, which only costs recomputation. A result holding a
// NaN or infinite value is kept in memory, served but never persisted, and
// counts as a dropped put; after a latched write error a put is neither
// served nor persisted, and counts as dropped.
func (s *Store) Put(k Key, r Result) {
	h := s.keyHash(k)
	s.wmu.Lock()
	s.mu.Lock()
	if !s.admitsLocked(h, k, r.HasTest) {
		s.mu.Unlock()
		s.wmu.Unlock()
		return
	}
	err := s.werr
	if err == nil {
		start := len(s.pending)
		if s.pending, err = appendRecord(s.pending, k, r); err == nil {
			s.index[h] = locator{
				off:     s.written + int64(start),
				n:       uint32(len(s.pending) - start - frameHeaderLen),
				seg:     s.own,
				hasTest: r.HasTest,
			}
			delete(s.mem, k)
			s.pendingPuts++
		} else {
			s.mem[k] = cloneResult(r)
		}
	}
	s.mu.Unlock()
	s.wmu.Unlock()
	s.puts.Add(1)
	if err != nil {
		s.dropped.Add(1)
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// admitsLocked reports whether a put may take k's entry: there is none, or
// the put upgrades it. The caller holds mu.
func (s *Store) admitsLocked(h uint64, k Key, hasTest bool) bool {
	if old, ok := s.index[h]; ok && !upgrades(old.hasTest, hasTest) {
		return false
	}
	old, ok := s.mem[k]
	return !ok || upgrades(old.HasTest, hasTest)
}

func cloneResult(r Result) Result {
	r.ValCustom = cloneFloats(r.ValCustom)
	r.TestCustom = cloneFloats(r.TestCustom)
	if len(r.Blob) > 0 {
		r.Blob = bytes.Clone(r.Blob)
	}
	return r
}

func cloneFloats(vs []float64) []float64 {
	if len(vs) == 0 {
		return vs
	}
	return append([]float64(nil), vs...)
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

// flushOnce writes the pending batch, then fsyncs everything written so
// far. Only the write holds wmu; the fsync runs under fmu alone, which also
// keeps flushes in order. Write and fsync errors latch: the store keeps
// serving lookups of what it wrote, further puts are dropped and counted.
func (s *Store) flushOnce() error {
	s.fmu.Lock()
	defer s.fmu.Unlock()
	written, err := s.writePending()
	if err != nil || written == s.synced {
		return err
	}
	if err := s.seg.Sync(); err != nil {
		s.wmu.Lock()
		s.werr = err
		s.wmu.Unlock()
		return err
	}
	s.walBytes.Add(uint64(written - s.synced))
	s.mWALBytes.Add(written - s.synced)
	s.synced = written
	return nil
}

// keptBatchCap bounds the pending buffer a handle keeps between batches. In
// dfsperf's pool_store workload no batch reached it (the largest of 24
// rounds was 31 KB), so those flushes keep their buffer; a bulk load, such
// as thousands of puts in a row, grows it further and gives that memory
// back once written, rather than holding it for the handle's lifetime.
const keptBatchCap = 64 << 10

// writePending appends the pending batch to the segment under wmu and
// returns the segment's written size. A latched error, or a write that
// fails and latches, drops the batch.
func (s *Store) writePending() (int64, error) {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.werr == nil && len(s.pending) > 0 {
		if _, err := s.seg.Write(s.pending); err != nil {
			s.werr = err
		} else {
			s.written += int64(len(s.pending))
			s.pendingPuts = 0
		}
	}
	if s.werr != nil {
		s.dropped.Add(uint64(s.pendingPuts))
		s.pendingPuts = 0
	}
	if cap(s.pending) > keptBatchCap {
		s.pending = nil
	} else {
		s.pending = s.pending[:0]
	}
	return s.written, s.werr
}

// Flush forces every pending put to durable storage before returning.
func (s *Store) Flush() error { return s.flushOnce() }

// Close flushes and closes every segment the handle holds, which releases
// its own segment's lock. Later lookups miss, except of non-finite puts.
// Safe to call more than once.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.done
		err := s.flushOnce()
		if cerr := s.closeFiles(); err == nil {
			err = cerr
		}
		s.closeErr = err
	})
	return s.closeErr
}

// closeFiles closes every segment file and returns the own segment's Close
// error; the others were only read.
func (s *Store) closeFiles() error {
	var err error
	for _, f := range s.files {
		if cerr := f.Close(); f == s.seg {
			err = cerr
		}
	}
	return err
}

// SyncGauges publishes the store's point-in-time sizes — served entries,
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
	entries := len(s.index) + len(s.mem)
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
