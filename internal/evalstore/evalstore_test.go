package evalstore

import (
	"bytes"
	"errors"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/race"
)

// testKey builds a key with a raw (non-UTF-8) mask so every test exercises
// the mask's raw-byte round trip through a frame.
func testKey(i int) Key {
	return Key{
		Scenario: 0xfeed + uint64(i/7),
		Mask:     string([]byte{0xff, byte(i), 0x00, 0x81, byte(i >> 8)}),
		Kind:     "LR",
		HPO:      i%2 == 0,
		Eps:      float64(i%3) * 0.7,
		Seed:     uint64(i) * 13,
	}
}

func testResult(i int) Result {
	return Result{
		Val:       constraint.Scores{F1: 0.5 + float64(i)/1000, EO: 0.9, Safety: 0.25, FeatureFrac: 0.5},
		ValCustom: []float64{float64(i) / 3},
	}
}

// marshalRecord is one record's frame, as Put appends it to the WAL.
func marshalRecord(k Key, r Result) ([]byte, error) { return appendRecord(nil, k, r) }

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ownSegment returns the one segment path an open store holds locked, by
// elimination: it is the newest segment in the directory.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	m, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	for i := 0; i < n; i++ {
		got, ok := s.Lookup(testKey(i))
		if !ok || !reflect.DeepEqual(got, testResult(i)) {
			t.Fatalf("key %d: got %+v ok=%v", i, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{})
	if st := r.Stats(); st.Entries != n {
		t.Fatalf("reopen loaded %d entries, want %d", st.Entries, n)
	}
	for i := 0; i < n; i++ {
		got, ok := r.Lookup(testKey(i))
		if !ok || !reflect.DeepEqual(got, testResult(i)) {
			t.Fatalf("reopen key %d: got %+v ok=%v", i, got, ok)
		}
	}
	st := r.Stats()
	if st.HitsDisk != n || st.Misses != 0 {
		t.Fatalf("stats after warm lookups: %s", st)
	}
	if _, ok := r.Lookup(testKey(999)); ok {
		t.Fatal("phantom hit")
	}
	if st := r.Stats(); st.Misses != 1 {
		t.Fatalf("miss not counted: %s", st)
	}
}

func TestStoreTornTailDropped(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	for i := 0; i < 3; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %v", segs)
	}
	// Simulate a crash mid-append: the first half of a real frame.
	frame, err := marshalRecord(testKey(3), testResult(3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openT(t, dir, Options{})
	st := r.Stats()
	if st.Entries != 3 {
		t.Fatalf("torn tail cost real entries: %s", st)
	}
	if st.CorruptLines != 0 {
		t.Fatalf("torn tail is the normal crash signature, not corruption: %s", st)
	}
}

func TestStoreCorruptInteriorKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segName(1))
	rec0, err := marshalRecord(testKey(0), testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	rec1, err := marshalRecord(testKey(1), testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := marshalRecord(testKey(2), testResult(2))
	if err != nil {
		t.Fatal(err)
	}
	rec1[len(rec1)/2] ^= 0x04 // one flipped bit inside the middle frame
	content := string(headerLine) + string(rec0) + string(rec1) + string(rec2)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	s := openT(t, dir, Options{})
	st := s.Stats()
	if st.Entries != 1 {
		t.Fatalf("want the valid prefix (1 entry), got %s", st)
	}
	if _, ok := s.Lookup(testKey(0)); !ok {
		t.Fatal("prefix record lost")
	}
	for _, i := range []int{1, 2} {
		if _, ok := s.Lookup(testKey(i)); ok {
			t.Fatalf("record %d at or after the corruption must be abandoned", i)
		}
	}
	if st.CorruptLines != 1 {
		t.Fatalf("corruption not counted once: %s", st)
	}
}

func TestStoreForeignHeaderSkipsSegment(t *testing.T) {
	dir := t.TempDir()
	rec, err := marshalRecord(testKey(0), testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	foreign := `{"magic":"someone-else","version":9}` + "\n" + string(rec)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte(foreign), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	if st := s.Stats(); st.Entries != 0 || st.CorruptLines == 0 {
		t.Fatalf("foreign segment must be skipped whole: %s", st)
	}
}

// TestStoreSegmentsPastCapSkipped pins the open-segment cap: a handle that
// already holds maxLoaded segments skips the next one unread and counts it
// like damage, so its entries miss, and the load goes on without an error;
// one slot below the cap, the same segment loads.
func TestStoreSegmentsPastCapSkipped(t *testing.T) {
	rec, err := marshalRecord(testKey(0), testResult(0))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), segName(1))
	if err := os.WriteFile(path, append(bytes.Clone(headerLine), rec...), 0o644); err != nil {
		t.Fatal(err)
	}
	s := &Store{seed: maphash.MakeSeed(), index: make(map[uint64]locator), files: make([]*os.File, maxLoaded)}
	if _, err := s.loadSegment(path, nil); err != nil {
		t.Fatalf("a segment past the cap failed the load: %v", err)
	}
	if len(s.files) != maxLoaded || len(s.index) != 0 || s.corrupt.Load() != 1 {
		t.Fatalf("past the cap: %d files, %d entries, %d corrupt; want %d, 0, 1", len(s.files), len(s.index), s.corrupt.Load(), maxLoaded)
	}
	s.files = s.files[:maxLoaded-1]
	if _, err := s.loadSegment(path, nil); err != nil {
		t.Fatal(err)
	}
	defer s.files[maxLoaded-1].Close()
	if len(s.files) != maxLoaded || len(s.index) != 1 || s.corrupt.Load() != 1 {
		t.Fatalf("below the cap: %d files, %d entries, %d corrupt; want %d, 1, 1", len(s.files), len(s.index), s.corrupt.Load(), maxLoaded)
	}
}

func TestStoreHasTestUpgrade(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k := testKey(5)
	valOnly := testResult(5)
	s.Put(k, valOnly)
	confirmed := valOnly
	confirmed.Test = constraint.Scores{F1: 0.61, EO: 0.88, Safety: 0.2, FeatureFrac: 0.5}
	confirmed.HasTest = true
	s.Put(k, confirmed)
	// A later val-only put must not shed the confirmed test scores.
	s.Put(k, valOnly)
	if got, _ := s.Lookup(k); !reflect.DeepEqual(got, confirmed) {
		t.Fatalf("got %+v want %+v", got, confirmed)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The upgrade also wins across the reopen merge, whatever the WAL order.
	r := openT(t, dir, Options{})
	if got, _ := r.Lookup(k); !reflect.DeepEqual(got, confirmed) {
		t.Fatalf("reopen lost the upgrade: got %+v want %+v", got, confirmed)
	}
}

func TestStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	const writers = 4
	for w := 0; w < writers; w++ {
		s := openT(t, dir, Options{compactAt: -1})
		for i := 0; i < 5; i++ {
			s.Put(testKey(w*5+i), testResult(w*5+i))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(segments(t, dir)); n != writers {
		t.Fatalf("want %d sealed segments before compaction, have %d", writers, n)
	}

	s := openT(t, dir, Options{compactAt: 2})
	st := s.Stats()
	if st.Compactions != 1 {
		t.Fatalf("compaction did not run: %s", st)
	}
	if st.Entries != writers*5 {
		t.Fatalf("compaction lost entries: %s", st)
	}
	// One merged segment plus this store's own live segment.
	if n := len(segments(t, dir)); n != 2 {
		t.Fatalf("want 2 segments after compaction, have %d", n)
	}
	for i := 0; i < writers*5; i++ {
		if got, ok := s.Lookup(testKey(i)); !ok || !reflect.DeepEqual(got, testResult(i)) {
			t.Fatalf("post-compaction key %d: got %+v ok=%v", i, got, ok)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The merged segment survives another cold open.
	r := openT(t, dir, Options{compactAt: -1})
	if st := r.Stats(); st.Entries != writers*5 {
		t.Fatalf("reopen after compaction: %s", st)
	}
}

// TestStoreCompactionSparesLiveSegments pins the flock probe: a concurrent
// open store's segment must never be folded away (its writer would keep
// appending to a deleted file).
func TestStoreCompactionSparesLiveSegments(t *testing.T) {
	dir := t.TempDir()
	for w := 0; w < 2; w++ {
		s := openT(t, dir, Options{compactAt: -1})
		s.Put(testKey(w), testResult(w))
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	live := openT(t, dir, Options{compactAt: -1})
	live.Put(testKey(10), testResult(10))
	if err := live.Flush(); err != nil {
		t.Fatal(err)
	}

	// This open sees 3 segments (2 sealed + 1 live) and compacts only the
	// sealed pair.
	s := openT(t, dir, Options{compactAt: 2})
	if st := s.Stats(); st.Compactions != 1 || st.Entries != 3 {
		t.Fatalf("want 1 compaction over 3 entries: %s", st)
	}
	live.Put(testKey(11), testResult(11))
	if err := live.Close(); err != nil {
		t.Fatal(err) // the live segment must still be writable and fsyncable
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, dir, Options{compactAt: -1})
	for _, i := range []int{0, 1, 10, 11} {
		if _, ok := r.Lookup(testKey(i)); !ok {
			t.Fatalf("key %d lost around compaction", i)
		}
	}
}

// TestStoreCompactionConcurrentReaders races compacting opens against plain
// reader opens over a directory of many sealed segments: every handle must
// observe the complete entry set — no entry lost to a segment deleted
// mid-scan, none duplicated — regardless of who wins the compact lock.
// (Without the shared scan lock, a reader that listed the directory before a
// compactor merged-and-deleted the sealed segments would silently read an
// empty store.)
func TestStoreCompactionConcurrentReaders(t *testing.T) {
	dir := t.TempDir()
	const writers, perWriter = 10, 8
	const total = writers * perWriter
	for w := 0; w < writers; w++ {
		s, err := Open(dir, Options{compactAt: -1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perWriter; i++ {
			k := w*perWriter + i
			s.Put(testKey(k), testResult(k))
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Half the concurrent opens are eager compactors, half plain readers.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opts := Options{compactAt: -1}
			if g%2 == 0 {
				opts.compactAt = 2
			}
			s, err := Open(dir, opts)
			if err != nil {
				t.Errorf("handle %d: %v", g, err)
				return
			}
			defer s.Close()
			if got := s.Stats().Entries; got != total {
				t.Errorf("handle %d: loaded %d entries, want %d", g, got, total)
				return
			}
			for k := 0; k < total; k++ {
				if got, ok := s.Lookup(testKey(k)); !ok || !reflect.DeepEqual(got, testResult(k)) {
					t.Errorf("handle %d: key %d lost around compaction (ok=%v)", g, k, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// After the dust settles, a cold open still holds the full set.
	r := openT(t, dir, Options{compactAt: -1})
	if st := r.Stats(); st.Entries != total {
		t.Fatalf("final reopen: %s, want %d entries", st, total)
	}
}

// TestStoreConcurrentStores drives two handles on one directory from many
// goroutines (run under -race): cross-process sharing reduced to one process,
// since flock and O_EXCL behave identically either way.
func TestStoreConcurrentStores(t *testing.T) {
	dir := t.TempDir()
	a := openT(t, dir, Options{})
	b := openT(t, dir, Options{})
	const n = 50
	var wg sync.WaitGroup
	for g, s := range []*Store{a, b} {
		wg.Add(1)
		go func(g int, s *Store) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.Put(testKey(g*n+i), testResult(g*n+i))
				s.Lookup(testKey(i))
			}
		}(g, s)
	}
	wg.Wait()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	if st := r.Stats(); st.Entries != 2*n {
		t.Fatalf("union lost entries: %s", st)
	}
}

// TestStoreLookupAllocFree pins the disk-tier hot path: a warm Lookup of a
// result without slices — every evaluation entry without custom values —
// does not allocate, and one with slices allocates exactly one slice per
// non-empty custom-value list or blob, which the caller then owns; a frame
// longer than the pooled read buffer costs one more. Both hold for a frame
// still pending and for one read back from the segment.
func TestStoreLookupAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under -race")
	}
	s := openT(t, t.TempDir(), Options{})
	scores := constraint.Scores{F1: 0.5, EO: 0.9, Safety: 0.25, FeatureFrac: 0.5}
	cases := []struct {
		r      Result
		allocs float64
	}{
		{Result{Val: scores}, 0},
		{Result{Val: scores, Test: scores, HasTest: true}, 0},
		{Result{Val: scores, ValCustom: []float64{1}}, 1},
		{Result{Val: scores, ValCustom: []float64{1, 2}, Test: scores, TestCustom: []float64{3}, HasTest: true}, 2},
		{Result{Blob: []byte("blob")}, 1},
		{Result{ValCustom: []float64{1}, TestCustom: []float64{2}, HasTest: true, Blob: []byte("blob")}, 3},
		{Result{Blob: make([]byte, frameBufLen)}, 2},
	}
	s.fmu.Lock() // holds the flusher off, so the frames stay pending
	for i, c := range cases {
		s.Put(testKey(i), c.r)
	}
	for _, where := range []string{"pending", "segment"} {
		if where == "segment" {
			s.fmu.Unlock()
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range cases {
			allocs := testing.AllocsPerRun(200, func() {
				if _, ok := s.Lookup(testKey(i)); !ok {
					t.Fatal("lost entry")
				}
			})
			if allocs != c.allocs {
				t.Errorf("%s: Lookup of %+v allocates %v times per call, want %v", where, c.r, allocs, c.allocs)
			}
		}
	}
}

// TestStoreIndexBytesCeiling bounds the live heap one handle holds per
// stored evaluation entry: a 16-byte locator under a 64-bit hash, not the
// decoded key and result, which took about 295 bytes.
func TestStoreIndexBytesCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are inflated under -race")
	}
	const n, ceiling = 20000, 80
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := liveHeap()
	s := openT(t, t.TempDir(), Options{})
	for i := 0; i < n; i++ {
		s.Put(testKey(i), testResult(i))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	grown := float64(liveHeap()) - float64(before)
	runtime.KeepAlive(s)
	if per := grown / n; per > ceiling {
		t.Fatalf("the open store holds %.0f bytes of live heap per entry over %d entries, want at most %d", per, n, ceiling)
	} else {
		t.Logf("%.1f bytes of live heap per entry", per)
	}
}

// TestStoreForeignFrameMisses points one key's locator at another key's
// frame, as a hash collision would, and then past a frame's start, as
// damage would: both lookups miss, never returning another key's result.
func TestStoreForeignFrameMisses(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	a, b := testKey(1), testKey(2)
	s.Put(a, testResult(1))
	s.Put(b, testResult(2))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	locB := s.index[s.keyHash(b)]
	s.index[s.keyHash(a)] = locB
	s.mu.Unlock()
	if got, ok := s.Lookup(a); ok {
		t.Fatalf("a locator at another key's frame served %+v", got)
	}
	if got, ok := s.Lookup(b); !ok || !reflect.DeepEqual(got, testResult(2)) {
		t.Fatalf("the frame's own key: got %+v ok=%v", got, ok)
	}
	locB.off++
	s.mu.Lock()
	s.index[s.keyHash(b)] = locB
	s.mu.Unlock()
	if got, ok := s.Lookup(b); ok {
		t.Fatalf("a locator off its frame's start served %+v", got)
	}
	if st := s.Stats(); st.HitsDisk != 1 || st.Misses != 2 {
		t.Fatalf("want 1 hit and 2 misses: %s", st)
	}
}

// TestStoreLookupResultIsCallers pins that a looked-up result shares no
// memory with the store: mutating its slices leaves the next Lookup
// unchanged, for a persisted entry and a non-finite one kept in memory.
func TestStoreLookupResultIsCallers(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	stored := Result{ValCustom: []float64{1, 2}, TestCustom: []float64{3}, HasTest: true, Blob: []byte("blob")}
	nonFinite := stored
	nonFinite.Val.EO = math.Inf(-1)
	s.Put(testKey(1), stored)
	s.Put(testKey(2), nonFinite)
	for i, want := range []Result{cloneResult(stored), cloneResult(nonFinite)} {
		got, ok := s.Lookup(testKey(i + 1))
		if !ok {
			t.Fatalf("key %d lost", i+1)
		}
		got.ValCustom[0], got.TestCustom[0], got.Blob[0] = -1, -1, 'X'
		if again, _ := s.Lookup(testKey(i + 1)); !reflect.DeepEqual(again, want) {
			t.Fatalf("key %d: mutating a returned result changed the store: %+v, want %+v", i+1, again, want)
		}
	}
}

// TestStorePutServedAcrossFlush serves one put at every stage of its way to
// disk: pending, written but not yet fsync'd (and so not yet counted in
// WALBytes), fsync'd, and after a reopen.
func TestStorePutServedAcrossFlush(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	k, want := testKey(4), testResult(4)
	served := func(stage string, s *Store) {
		t.Helper()
		if got, ok := s.Lookup(k); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: got %+v ok=%v", stage, got, ok)
		}
	}
	s.fmu.Lock() // holds the flusher off
	s.Put(k, want)
	s.wmu.Lock()
	pending := s.pendingPuts
	s.wmu.Unlock()
	if pending != 1 {
		t.Fatalf("%d frames pending, want 1", pending)
	}
	served("pending", s)
	if _, err := s.writePending(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALBytes != 0 {
		t.Fatalf("WALBytes counted before the fsync: %s", st)
	}
	served("written, before its fsync", s)
	s.fmu.Unlock()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALBytes == 0 {
		t.Fatalf("WALBytes not counted after the fsync: %s", st)
	}
	served("fsync'd", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	served("after reopen", openT(t, dir, Options{}))
}

// TestStoreLookupDuringFlush reads each put back at once from several
// goroutines while another flushes without pause (run under -race): a frame
// moving from the pending batch into the file, fsync'd or not, is served
// whole at every point of the move.
func TestStoreLookupDuringFlush(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	const writers, n = 4, 200
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Flush(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * n; i < (g+1)*n; i++ {
				s.Put(testKey(i), testResult(i))
				if got, ok := s.Lookup(testKey(i)); !ok || !reflect.DeepEqual(got, testResult(i)) {
					t.Errorf("key %d right after its put: got %+v ok=%v", i, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-flushed
}

// TestStoreLatchedErrorServesOnlyWritten pins what a handle serves after a
// write error latches: entries already written keep serving; the batch
// pending at the error and every later put, non-finite ones included, are
// neither served nor persisted.
func TestStoreLatchedErrorServesOnlyWritten(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put(testKey(0), testResult(0))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s.fmu.Lock() // holds the flusher off, so key 1 is pending at the error
	s.Put(testKey(1), testResult(1))
	s.wmu.Lock()
	s.werr = errors.New("no space left on device")
	s.wmu.Unlock()
	s.fmu.Unlock()
	nonFinite := testResult(3)
	nonFinite.Val.F1 = math.NaN()
	s.Put(testKey(2), testResult(2))
	s.Put(testKey(3), nonFinite)
	if err := s.Flush(); err == nil {
		t.Fatal("Flush after a latched error succeeded")
	}
	if _, ok := s.Lookup(testKey(0)); !ok {
		t.Fatal("an entry written before the error stopped serving")
	}
	for _, i := range []int{1, 2, 3} {
		if got, ok := s.Lookup(testKey(i)); ok {
			t.Fatalf("key %d, never written, served %+v", i, got)
		}
	}
	if st := s.Stats(); st.Puts != 4 || st.DroppedPuts != 3 {
		t.Fatalf("want 4 puts with 3 dropped: %s", st)
	}
	s.Close()
	r := openT(t, dir, Options{})
	if st := r.Stats(); st.Entries != 1 {
		t.Fatalf("reopen holds %s, want only the written entry", st)
	}
}

// TestStoreNegativeZeroEps pins that ε = -0 and ε = 0, which make equal
// keys, share one entry.
func TestStoreNegativeZeroEps(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	k := testKey(3) // ε = 0
	s.Put(k, testResult(3))
	k.Eps = math.Copysign(0, -1)
	if got, ok := s.Lookup(k); !ok || !reflect.DeepEqual(got, testResult(3)) {
		t.Fatalf("ε = -0: got %+v ok=%v", got, ok)
	}
}

func TestStoreStatsString(t *testing.T) {
	st := Stats{Entries: 3, Segments: 2, HitsDisk: 7, Misses: 1, Puts: 4, WALBytes: 100}
	s := st.String()
	for _, want := range []string{"entries=3", "segments=2", "hits_disk=7", "misses=1", "puts=4", "wal_bytes=100", "compactions=0"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing from %q", want, s)
		}
	}
}

func TestOpenEmptyDirRejected(t *testing.T) {
	if _, err := Open("", Options{}); err == nil {
		t.Fatal("want error for empty dir")
	}
}

// TestStoreNonFinitePutsNotPersisted pins the persisted set across the
// codec change: a result holding NaN or ±Inf serves lookups in the handle
// that put it, is never written, and counts as a dropped put.
func TestStoreNonFinitePutsNotPersisted(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	nanEO := testResult(1)
	nanEO.Val.EO = math.NaN()
	infCustom := testResult(2)
	infCustom.ValCustom = []float64{math.Inf(1)}
	s.Put(testKey(1), nanEO)
	s.Put(testKey(2), infCustom)
	s.Put(testKey(3), testResult(3))
	for _, i := range []int{1, 2, 3} {
		if _, ok := s.Lookup(testKey(i)); !ok {
			t.Fatalf("key %d misses in the handle that put it", i)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Puts != 3 || st.DroppedPuts != 2 {
		t.Fatalf("want 3 puts with the 2 non-finite ones dropped: %s", st)
	}
	r := openT(t, dir, Options{})
	for _, i := range []int{1, 2} {
		if _, ok := r.Lookup(testKey(i)); ok {
			t.Fatalf("non-finite key %d replayed from disk", i)
		}
	}
	if _, ok := r.Lookup(testKey(3)); !ok {
		t.Fatal("finite key lost")
	}
}

// TestStoreLatchedWriteErrorCountsPuts pins dropped-put accounting after a
// write error: one per put, however many 0x0A bytes its frame holds.
func TestStoreLatchedWriteErrorCountsPuts(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.seg.Close() // every later append fails and latches
	const n = 3
	for i := 0; i < n; i++ {
		k := Key{Scenario: 0x0a0a0a0a, Mask: "\n\n\n", Kind: "LR", Seed: uint64(i)}
		r := Result{Val: constraint.Scores{F1: math.Float64frombits(0x0a0a0a0a0a0a0a0a)}, ValCustom: []float64{10}}
		if frame, err := marshalRecord(k, r); err != nil || bytes.Count(frame, []byte("\n")) < 2 {
			t.Fatalf("frame %q (%v) must hold several newline bytes", frame, err)
		}
		s.Put(k, r)
	}
	if err := s.Close(); err == nil {
		t.Fatal("closing over a closed segment file succeeded")
	}
	if st := s.Stats(); st.Puts != n || st.DroppedPuts != n || st.WALBytes != 0 {
		t.Fatalf("want %d puts, all dropped, none written: %s", n, st)
	}
}
