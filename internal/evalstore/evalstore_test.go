package evalstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
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

// TestStoreLookupAllocFree pins the disk-tier hot path: a warm Lookup must
// not allocate (the key is passed by value, the result returned by value).
func TestStoreLookupAllocFree(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are unstable under -race")
	}
	s := openT(t, t.TempDir(), Options{})
	k := testKey(1)
	s.Put(k, testResult(1))
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.Lookup(k); !ok {
			t.Fatal("lost entry")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v times per call, want 0", allocs)
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
