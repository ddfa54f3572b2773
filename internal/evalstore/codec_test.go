package evalstore

import (
	"bytes"
	"hash/crc32"
	"hash/maphash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/declarative-fs/dfs/internal/constraint"
)

type kv struct {
	k Key
	r Result
}

// mixedRecords covers every field and namespace a frame carries: evaluation
// entries with and without test scores and custom values, a HasTest upgrade
// of an earlier key, "rank:" rankings, a "record:v1" blob, a mask holding
// '\n' bytes, and floats whose bits a text codec could lose (-0, the
// smallest subnormal).
func mixedRecords() []kv {
	ranking := make([]float64, 40)
	for i := range ranking {
		ranking[i] = math.Sin(float64(i)) * 1e3
	}
	blob := []byte(`{"seed":1,"max_evals":15,"record":{"ID":3,"Rows":[` + strings.Repeat(`0.125,`, 80) + `1]}}`)
	confirmed := testResult(0)
	confirmed.Test, confirmed.HasTest = constraint.Scores{F1: 0.7, EO: 0.8, Safety: 0.1, FeatureFrac: 0.5}, true
	return []kv{
		{testKey(0), testResult(0)},
		{Key{Scenario: 9, Kind: "rank:ReliefF", Seed: 4}, Result{ValCustom: ranking, HasTest: true}},
		{Key{Scenario: 9, Mask: "\n\x00\n", Kind: "DT", HPO: true, Eps: 0.5, Seed: 4}, Result{
			Val: constraint.Scores{F1: math.Copysign(0, -1), EO: 5e-324, Safety: 1, FeatureFrac: 0.25}, ValCustom: []float64{-1.5, 2},
			Test: constraint.Scores{F1: 0.6, EO: 0.5, Safety: 0.4, FeatureFrac: 0.25}, TestCustom: []float64{3}, HasTest: true,
		}},
		{Key{Scenario: 10, Mask: "pool:1:evals:15:id:3", Kind: "record:v1", Seed: 1 ^ 3<<8}, Result{Blob: blob}},
		{testKey(0), confirmed},
		{Key{Scenario: 11, Kind: "NB", Seed: 4}, Result{Val: constraint.Scores{F1: 1, EO: 1, Safety: 1, FeatureFrac: 1}}},
		{Key{Scenario: 11, Mask: "\xf0\x0f", Kind: "rank:Model", Seed: 4}, Result{ValCustom: ranking[:7]}},
		{testKey(7), testResult(7)},
	}
}

// frames encodes records as consecutive frames and returns the bytes plus
// each frame's end offset within them.
func frames(t testing.TB, recs []kv) ([]byte, []int) {
	t.Helper()
	var b []byte
	var ends []int
	for _, e := range recs {
		var err error
		if b, err = appendRecord(b, e.k, e.r); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(b))
	}
	return b, ends
}

// entryKey is a key as the contents maps below hold it. A map keyed by Key
// compares keys through Key's generated equality, which the coverage-guided
// fuzzer instruments, and how often the map calls it depends on the map's
// random hash seed; the fuzzer took that for new coverage it could not
// reproduce. ε is written by value, so 0 and -0 stay one key, as they are in
// the store.
func entryKey(k Key) string {
	b := le.AppendUint64(nil, k.Scenario)
	b = le.AppendUint64(b, k.Seed)
	if k.Eps != 0 {
		b = le.AppendUint64(b, math.Float64bits(k.Eps))
	} else {
		b = le.AppendUint64(b, 0)
	}
	if k.HPO {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = appendBytes(b, k.Mask)
	return string(appendBytes(b, k.Kind))
}

// mergedIndex is the decoded contents the first n records load into.
func mergedIndex(recs []kv, n int) map[string]Result {
	m := make(map[string]Result)
	for _, e := range recs[:n] {
		if old, ok := m[entryKey(e.k)]; !ok || upgrades(old.HasTest, e.r.HasTest) {
			m[entryKey(e.k)] = e.r
		}
	}
	return m
}

// contents decodes every entry an open store serves: each indexed frame,
// read back from its segment, and each non-finite put kept in memory.
func contents(t testing.TB, s *Store) map[string]Result {
	t.Helper()
	s.mu.RLock()
	locs := make([]locator, 0, len(s.index))
	for _, loc := range s.index {
		locs = append(locs, loc)
	}
	m := make(map[string]Result, len(s.index)+len(s.mem))
	for k, r := range s.mem {
		m[entryKey(k)] = r
	}
	s.mu.RUnlock()
	for _, loc := range locs {
		frame, ok := s.readFrame(loc, nil)
		if !ok {
			t.Fatalf("indexed frame %+v unreadable", loc)
		}
		rec, ok := parseFrame(frame)
		if !ok {
			t.Fatalf("indexed frame %+v does not parse", loc)
		}
		m[entryKey(rec.key())] = rec.result()
	}
	return m
}

// reopenSegment writes data as the directory's only sealed segment, opens
// the store over it and returns the loaded contents and stats; the segment
// the open created for itself is removed again.
func reopenSegment(t *testing.T, dir string, data []byte) (map[string]Result, Stats) {
	t.Helper()
	sealed := filepath.Join(dir, segName(1))
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{compactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	index := contents(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segments(t, dir) {
		if seg != sealed {
			os.Remove(seg)
		}
	}
	return index, st
}

// TestWALTailCrashPoints enumerates every crash point of one segment's
// append: cut at each byte offset, reopening loads exactly the records whose
// frames end at or before the cut, and a cut is never counted as corruption
// — inside the header line, a frame header or a payload alike.
func TestWALTailCrashPoints(t *testing.T) {
	recs := mixedRecords()
	body, ends := frames(t, recs)
	data := append(bytes.Clone(headerLine), body...)
	dir := t.TempDir()
	for off := 0; off <= len(data); off++ {
		n := 0
		for n < len(ends) && len(headerLine)+ends[n] <= off {
			n++
		}
		index, st := reopenSegment(t, dir, data[:off])
		if st.CorruptLines != 0 {
			t.Fatalf("cut at %d/%d counted as corruption: %s", off, len(data), st)
		}
		if want := mergedIndex(recs, n); !reflect.DeepEqual(index, want) {
			t.Fatalf("cut at %d/%d: loaded %d entries, want the %d whole frames' %d", off, len(data), len(index), n, len(want))
		}
	}
}

// TestWALFrameBitFlips enumerates every single-bit flip inside one interior
// frame — its length, its checksum and its payload: the earlier frames
// load, that frame and every later one are dropped, and the damage counts
// once. A flipped length that runs past the end of the file still counts as
// corruption, not as a torn tail.
func TestWALFrameBitFlips(t *testing.T) {
	recs := mixedRecords()
	const victim = 2
	body, ends := frames(t, recs)
	data := append(bytes.Clone(headerLine), body...)
	start, end := len(headerLine)+ends[victim-1], len(headerLine)+ends[victim]
	want := mergedIndex(recs, victim)
	dir := t.TempDir()
	for bit := start * 8; bit < end*8; bit++ {
		flipped := bytes.Clone(data)
		flipped[bit/8] ^= 1 << (bit % 8)
		index, st := reopenSegment(t, dir, flipped)
		if st.CorruptLines != 1 || !reflect.DeepEqual(index, want) {
			t.Fatalf("bit %d of the frame at [%d,%d) flipped: loaded %d entries (want %d): %s",
				bit-start*8, start, end, len(index), len(want), st)
		}
	}
}

// TestStoreV1SegmentSkipped pins the upgrade path: a segment of the
// JSON-lines format (version 1) is skipped whole and counted, new puts land
// in a version-2 segment, and compaction deletes the unreadable file.
func TestStoreV1SegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, segName(1))
	const v1Segment = `{"magic":"dfs-evalstore","version":1}
{"scn":65261,"mask":"ff0000810000","kind":"LR","hpo":true,"seed":0,"val":{"F1":0.5,"EO":0.9,"Safety":0.25,"FeatureFrac":0.5},"valc":[0],"test":{"F1":0,"EO":0,"Safety":0,"FeatureFrac":0}}
{"scn":65261,"mask":"ff0100810000","kind":"LR","eps":0.7,"seed":13,"val":{"F1":0.501,"EO":0.9,"Safety":0.25,"FeatureFrac":0.5},"valc":[0.3333333333333333],"test":{"F1":0,"EO":0,"Safety":0,"FeatureFrac":0}}
`
	if err := os.WriteFile(v1, []byte(v1Segment), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{compactAt: -1})
	if st := s.Stats(); st.Entries != 0 || st.Segments != 1 || st.CorruptLines != 1 {
		t.Fatalf("v1 segment must be skipped whole and counted once: %s", st)
	}
	if _, ok := s.Lookup(testKey(0)); ok {
		t.Fatal("a v1 record was decoded")
	}
	s.Put(testKey(0), testResult(0))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segments(t, dir)
	if len(segs) != 2 {
		t.Fatalf("want the v1 segment plus one new segment, have %v", segs)
	}
	own, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(own, []byte(`{"magic":"dfs-evalstore","version":2}`+"\n")) {
		t.Fatalf("new segment header: %q", own[:min(len(own), 40)])
	}

	r := openT(t, dir, Options{compactAt: 2})
	if st := r.Stats(); st.Compactions != 1 || st.Entries != 1 {
		t.Fatalf("want one compaction keeping the v2 entry: %s", st)
	}
	if _, err := os.Stat(v1); !os.IsNotExist(err) {
		t.Fatalf("compaction left the v1 segment behind: %v", err)
	}
	if got, ok := r.Lookup(testKey(0)); !ok || !reflect.DeepEqual(got, testResult(0)) {
		t.Fatalf("v2 entry lost in compaction: %+v ok=%v", got, ok)
	}
}

// FuzzLoadSegment feeds the segment loader arbitrary frame bytes behind a
// valid header. It must never panic, it must load exactly the frames before
// the first torn or corrupt one — in order, byte for byte — and it counts
// at most one corrupt line per segment.
func FuzzLoadSegment(f *testing.F) {
	recs := mixedRecords()
	body, ends := frames(f, recs)
	f.Add(body)
	for i, e := range recs {
		frame, err := marshalRecord(e.k, e.r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])     // torn payload
		f.Add(frame[:frameHeaderLen-3]) // torn frame header
		if i+1 < len(ends) {
			f.Add(body[:ends[i]+frameHeaderLen]) // whole frames, then the next one's header only
		}
	}
	// The last flip breaks the checksum of the record-blob frame (recs[3]).
	// Reading every loaded frame back checksums a whole frame twice more, so
	// without this seed, breaking that frame — the one frame long enough for
	// CRC-32C's three-way loop — was new coverage that a third of its
	// mutations found, and minimizing a corrupt 650-byte frame ran out the
	// default minimize time of 60 s on every worker.
	for _, bit := range []int{3, 31, 8*4 + 7, 8*ends[1] + 8*20 + 1, 8*ends[2] + 30, 8 * (ends[2] + frameHeaderLen + 100)} {
		flipped := bytes.Clone(body)
		flipped[bit/8] ^= 1 << (bit % 8)
		f.Add(flipped)
	}
	path := filepath.Join(f.TempDir(), segName(1)) // inputs run one at a time per process
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append(bytes.Clone(headerLine), body...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := &Store{seed: maphash.MakeSeed(), index: make(map[uint64]locator)}
		if _, err := s.loadSegment(path, nil); err != nil {
			t.Fatal(err)
		}
		defer s.closeFiles()
		if c := s.corrupt.Load(); c > 1 {
			t.Fatalf("%d corrupt lines counted for one segment", c)
		}

		var loaded []kv
		decodeSegment(data, func(k Key, r Result) { loaded = append(loaded, kv{k, r}) })
		prefix, _ := frames(t, loaded)
		if !bytes.HasPrefix(body, prefix) {
			t.Fatalf("loaded %d records that do not re-encode to the segment's leading frames", len(loaded))
		}
		want := mergedIndex(loaded, len(loaded))
		if got := contents(t, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("index holds %d entries, the loaded frames merge to %d", len(got), len(want))
		}
		for _, e := range loaded {
			if got, ok := s.Lookup(e.k); !ok || !reflect.DeepEqual(got, want[entryKey(e.k)]) {
				t.Fatalf("Lookup(%+v) = %+v, %v; the merged frame holds %+v", e.k, got, ok, want[entryKey(e.k)])
			}
		}
		rest := body[len(prefix):]
		var more int
		decodeSegment(append(bytes.Clone(headerLine), rest...), func(Key, Result) { more++ })
		if more != 0 {
			t.Fatalf("loading stopped before a valid frame at offset %d", len(prefix))
		}
		if len(rest) == 0 && s.corrupt.Load() != 0 {
			t.Fatal("a segment of whole frames was counted as corrupt")
		}
	})
}

// TestDecodeRecordStrict pins the checks a frame's checksum normally
// shields: payloads appendRecord could not have written, framed with a
// valid checksum, are corrupt — the segment keeps the frames before them.
func TestDecodeRecordStrict(t *testing.T) {
	frame, err := marshalRecord(testKey(1), testResult(1))
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[frameHeaderLen:]
	if rec, ok := parseRecord(payload); !ok || rec.key() != testKey(1) || !reflect.DeepEqual(rec.result(), testResult(1)) {
		t.Fatalf("the unmodified payload must decode: %+v %v", rec, ok)
	}
	if payload[fixedLen] != 5 {
		t.Fatalf("mask length byte is %d, want testKey's 5", payload[fixedLen])
	}
	flag := bytes.Clone(payload)
	flag[24] |= 1 << 2
	nan := bytes.Clone(payload)
	le.PutUint64(nan[25:], math.Float64bits(math.NaN()))
	for name, p := range map[string][]byte{
		"trailing byte":      append(bytes.Clone(payload), 0),
		"short":              payload[:len(payload)-1],
		"unknown flag":       flag,
		"NaN score":          nan,
		"non-minimal length": append(append(bytes.Clone(payload[:fixedLen]), 0x85, 0x00), payload[fixedLen+1:]...),
	} {
		bad := le.AppendUint32(le.AppendUint32(nil, uint32(len(p))), crc32.Checksum(p, castagnoli))
		data := append(append(append(bytes.Clone(headerLine), frame...), bad...), p...)
		n := 0
		if corrupt := decodeSegment(data, func(Key, Result) { n++ }); !corrupt || n != 1 {
			t.Errorf("%s: corrupt=%v after %d records, want corrupt after the 1 valid one", name, corrupt, n)
		}
	}
}
