package evalstore_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/constraint"
	"github.com/declarative-fs/dfs/internal/evalstore"
)

// The store's layer benchmarks run over one fixed, generated workload shaped
// like a warm dfsd store after a small served job: 440 evaluation entries,
// 140 ranking entries of 40 scores each, and 16 completed-scenario records of
// about 8 KB. They use only the package's exported API, so they measure
// whichever segment codec the package carries.
const (
	benchEvals    = 440
	benchRankings = 140
	benchRecords  = 16
)

type benchEntry struct {
	key evalstore.Key
	res evalstore.Result
}

func benchWorkload() []benchEntry {
	rng := rand.New(rand.NewSource(1))
	scores := func() constraint.Scores {
		return constraint.Scores{F1: rng.Float64(), EO: rng.Float64(), Safety: rng.Float64(), FeatureFrac: rng.Float64()}
	}
	mask := func(n int) string {
		b := make([]byte, n)
		rng.Read(b)
		return string(b)
	}
	const scn = 0x5eed
	var out []benchEntry
	kinds := []string{"LR", "NB", "DT", "SVM"}
	for i := 0; i < benchEvals; i++ {
		k := evalstore.Key{Scenario: scn + uint64(i%4), Mask: mask(4), Kind: kinds[i%len(kinds)], HPO: i%3 == 0, Seed: 7}
		if i%5 == 0 {
			k.Eps = 1
		}
		r := evalstore.Result{Val: scores()}
		if i%4 == 0 {
			r.Test, r.HasTest = scores(), true
		}
		if i%6 == 0 {
			r.ValCustom = []float64{rng.Float64()}
		}
		out = append(out, benchEntry{k, r})
	}
	families := []string{"Chi2", "FCBF", "Fisher", "MCFS", "MIM", "Model", "ReliefF", "Variance"}
	for i := 0; i < benchRankings; i++ {
		sc := make([]float64, 40)
		for j := range sc {
			sc[j] = rng.NormFloat64()
		}
		k := evalstore.Key{Scenario: scn + uint64(i/len(families)%4), Kind: "rank:" + families[i%len(families)], Seed: 7}
		if i >= len(families)*4 {
			k.Mask = mask(4) // RFE's per-subset rankings
		}
		out = append(out, benchEntry{k, evalstore.Result{ValCustom: sc}})
	}
	for i := 0; i < benchRecords; i++ {
		vals := make([]float64, 420)
		for j := range vals {
			vals[j] = rng.Float64()
		}
		blob, err := json.Marshal(vals) // about 8 KB of JSON, like a cached Record
		if err != nil {
			panic(err)
		}
		k := evalstore.Key{Scenario: scn + uint64(i), Mask: fmt.Sprintf("pool:1:evals:15:id:%d", i), Kind: "record:v1", Seed: 1 ^ uint64(i)<<8}
		out = append(out, benchEntry{k, evalstore.Result{Blob: blob}})
	}
	return out
}

func benchSegments(b *testing.B, dir string) []string {
	b.Helper()
	m, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkStoreOpen times one Open and Close of a store holding the
// workload in one sealed segment whose last record is torn, so every op pays
// the full load plus torn-tail recovery. Between ops the segment each Open
// creates for itself is removed, so every op loads the same directory.
func BenchmarkStoreOpen(b *testing.B) {
	work := benchWorkload()
	dir := b.TempDir()
	s, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range work {
		s.Put(e.key, e.res)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	segs := benchSegments(b, dir)
	if len(segs) != 1 {
		b.Fatalf("want one sealed segment, have %v", segs)
	}
	sealed := segs[0]
	fi, err := os.Stat(sealed)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.Truncate(sealed, fi.Size()-3); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := evalstore.Open(dir, evalstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := s.Stats(); st.Entries != len(work)-1 || st.CorruptLines != 0 {
			b.Fatalf("open loaded %s, want %d entries and no corruption", st, len(work)-1)
		}
		for _, seg := range benchSegments(b, dir) {
			if seg != sealed {
				os.Remove(seg)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkStorePut times putting the whole workload into a freshly opened
// empty store and closing it, so an op covers every Put's encoding and
// buffering plus the write-behind appends and fsyncs that make them durable.
// The Open and the directory's removal are untimed.
func BenchmarkStorePut(b *testing.B) {
	work := benchWorkload()
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, fmt.Sprint(i))
		s, err := evalstore.Open(dir, evalstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, e := range work {
			s.Put(e.key, e.res)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := s.Stats(); st.Puts != uint64(len(work)) || st.DroppedPuts != 0 {
			b.Fatalf("put %s, want %d puts and none dropped", st, len(work))
		}
		os.RemoveAll(dir)
		b.StartTimer()
	}
}

// BenchmarkStoreLookup times the read path: one op looks up every key of the
// workload once, in a store reopened over the sealed segment that holds
// them, so every lookup is a disk-tier hit.
func BenchmarkStoreLookup(b *testing.B) {
	work := benchWorkload()
	dir := b.TempDir()
	s, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range work {
		s.Put(e.key, e.res)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	r, err := evalstore.Open(dir, evalstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	for _, e := range work {
		if got, ok := r.Lookup(e.key); !ok || !reflect.DeepEqual(got, e.res) {
			b.Fatalf("lookup of %+v: got %+v ok=%v", e.key, got, ok)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range work {
			if _, ok := r.Lookup(e.key); !ok {
				b.Fatal("lost entry")
			}
		}
	}
}

// putGap spaces BenchmarkStorePutLatency's puts like training commits: in
// dfsperf's pool_store workload (2 vCPUs, ext4), consecutive puts to the
// round's store arrived a median 0.42 ms apart (p10 0.08 ms, p90 2.2 ms,
// over 24 rounds from both closed-loop callers together), and the flusher's
// fsyncs took a median 0.3 ms, so some puts land while it writes and syncs.
const putGap = 420 * time.Microsecond

// BenchmarkStorePutLatency times each Put on its own. One op puts the whole
// workload into a freshly opened empty store, one entry at a time with
// putGap of busy work between puts (the caller trains between commits), and
// closes the store. The metrics are the p50, p99 and maximum of every put's
// duration across all ops, so a put that waits for the flusher shows in the
// tail, and ns/op is the time spent inside Put per op (the timer, which
// sizes b.N, also runs through the gaps and the Close).
func BenchmarkStorePutLatency(b *testing.B) {
	work := benchWorkload()
	root := b.TempDir()
	lat := make([]time.Duration, 0, b.N*len(work))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, fmt.Sprint(i))
		s, err := evalstore.Open(dir, evalstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, e := range work {
			for t0 := time.Now(); time.Since(t0) < putGap; {
			}
			start := time.Now()
			s.Put(e.key, e.res)
			lat = append(lat, time.Since(start))
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		os.RemoveAll(dir)
		b.StartTimer()
	}
	b.StopTimer()
	var total time.Duration
	for _, d := range lat {
		total += d
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	q := func(p float64) float64 { return float64(lat[int(p*float64(len(lat)-1))].Nanoseconds()) }
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "ns/op")
	b.ReportMetric(q(0.5), "p50-ns/put")
	b.ReportMetric(q(0.99), "p99-ns/put")
	b.ReportMetric(q(1), "max-ns/put")
}
