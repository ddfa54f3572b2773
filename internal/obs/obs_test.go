package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// decodeLines parses a JSONL trace into generic records, failing on any line
// the standard library cannot parse — the hand-rolled encoder must produce
// strictly valid JSON.
func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestTracerSpanTree(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriterTracer(&buf)

	root := tr.StartSpan(0, "pool", Str("label", "test"), Int("scenarios", 2))
	child := tr.StartSpan(root, "scenario", Int("idx", 0))
	tr.Event(child, "eval", Str("memo", "miss"), Float("cost", 12.5), Bool("ok", true))
	tr.EndSpan(child, Str("status", "done"))
	tr.EndSpan(root, Str("status", "done"))
	if err := tr.Err(); err != nil {
		t.Fatal(err)
	}

	recs := decodeLines(t, &buf)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	if recs[0]["t"] != "start" || recs[0]["name"] != "pool" || recs[0]["label"] != "test" {
		t.Fatalf("bad root start: %v", recs[0])
	}
	if recs[1]["parent"] != recs[0]["id"] {
		t.Fatalf("child parent %v != root id %v", recs[1]["parent"], recs[0]["id"])
	}
	if recs[2]["t"] != "event" || recs[2]["span"] != recs[1]["id"] {
		t.Fatalf("event not attached to child span: %v", recs[2])
	}
	if recs[2]["cost"] != 12.5 || recs[2]["ok"] != true {
		t.Fatalf("event attrs corrupted: %v", recs[2])
	}
	// Timestamps are monotonic within the file.
	last := -1.0
	for i, r := range recs {
		ts, ok := r["ts"].(float64)
		if !ok || ts < last {
			t.Fatalf("record %d: non-monotonic ts %v after %v", i, r["ts"], last)
		}
		last = ts
	}
}

func TestTracerStringEscaping(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriterTracer(&buf)
	hostile := "quote\" back\\slash \n\t\r ctrl\x01 unicode™"
	tr.Event(0, "failure", Str("error", hostile))
	recs := decodeLines(t, &buf)
	if got := recs[0]["error"]; got != hostile {
		t.Fatalf("round-trip mangled the string: %q != %q", got, hostile)
	}
}

func TestTracerNonFiniteFloats(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriterTracer(&buf)
	tr.Event(0, "x", Float("nan", math.NaN()), Float("inf", math.Inf(1)), Float("ninf", math.Inf(-1)))
	recs := decodeLines(t, &buf)
	for _, k := range []string{"nan", "inf", "ninf"} {
		if v, present := recs[0][k]; !present || v != nil {
			t.Fatalf("%s must encode as null, got %v", k, v)
		}
	}
}

type failingSink struct{ calls int }

func (s *failingSink) Emit([]byte) error {
	s.calls++
	return errors.New("sink down")
}

func TestTracerSinkErrorLatched(t *testing.T) {
	sink := &failingSink{}
	tr := NewTracer(sink)
	tr.Event(0, "a")
	tr.Event(0, "b")
	if tr.Err() == nil {
		t.Fatal("sink failure must latch into Err")
	}
	if sink.calls != 2 {
		t.Fatalf("emission must continue after an error, got %d calls", sink.calls)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	id := tr.StartSpan(0, "x")
	if id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	tr.EndSpan(id)
	tr.Event(0, "y", Str("k", "v"))
	if tr.Err() != nil {
		t.Fatal("nil tracer must not report errors")
	}
}

func TestTracerConcurrentEmission(t *testing.T) {
	var buf bytes.Buffer
	tr := NewWriterTracer(&syncBuffer{buf: &buf})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s := tr.StartSpan(0, "worker", Int("g", int64(g)))
				tr.Event(s, "tick", Int("i", int64(i)))
				tr.EndSpan(s)
			}
		}(g)
	}
	wg.Wait()
	recs := decodeLines(t, &buf)
	if len(recs) != 8*50*3 {
		t.Fatalf("got %d records, want %d", len(recs), 8*50*3)
	}
	seen := map[uint64]bool{}
	for _, r := range recs {
		if r["t"] == "start" {
			id := uint64(r["id"].(float64))
			if seen[id] {
				t.Fatalf("duplicate span id %d", id)
			}
			seen[id] = true
		}
	}
}

// syncBuffer serializes writes; the tracer already holds its own lock, but a
// second lock keeps the test honest if that ever changes.
type syncBuffer struct {
	mu  sync.Mutex
	buf *bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func TestRegistryCountersGaugesHistograms(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("evals")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("evals") != c {
		t.Fatal("get-or-create must return the same handle")
	}

	g := r.Gauge("depth")
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
	g.Set(7)

	h := r.Histogram("train.seconds")
	for _, v := range []float64{0.005, 0.5, 50, math.NaN()} {
		h.Observe(v)
	}
	s := r.Snapshot()
	if s.Counter("evals") != 5 || s.Gauge("depth") != 7 {
		t.Fatalf("snapshot mismatch: %+v", s)
	}
	hs := s.Histograms["train.seconds"]
	if hs.Count != 3 {
		t.Fatalf("NaN must be dropped: count = %d", hs.Count)
	}
	if hs.Min != 0.005 || hs.Max != 50 || hs.Sum != 50.505 {
		t.Fatalf("bad summary: %+v", hs)
	}
	total := int64(0)
	for _, b := range hs.Buckets {
		total += b
	}
	if total != hs.Count {
		t.Fatalf("bucket sum %d != count %d", total, hs.Count)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(1)
	r.Histogram("z").Observe(1)
	s := r.Snapshot()
	if s.Counters == nil || s.Gauges == nil || s.Histograms == nil {
		t.Fatal("nil registry snapshot must have non-nil maps")
	}
	if s.Counter("x") != 0 {
		t.Fatal("nil registry counter must read 0")
	}
}

func TestRegistryWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Histogram("h").Observe(2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Counter("a") != 1 {
		t.Fatalf("round-trip lost counter: %+v", decoded)
	}
}

func TestRuntimeContextPlumbing(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must yield nil runtime")
	}
	rt := New()
	ctx := NewContext(context.Background(), rt)
	if FromContext(ctx) != rt {
		t.Fatal("runtime lost in context")
	}
	if SpanFromContext(ctx) != 0 {
		t.Fatal("no span yet")
	}
	ctx = ContextWithSpan(ctx, SpanID(42))
	if SpanFromContext(ctx) != 42 {
		t.Fatal("span lost in context")
	}

	var nilRT *Runtime
	if nilRT.Tracer() != nil || nilRT.Metrics() != nil {
		t.Fatal("nil runtime accessors must return nil")
	}
	if NewContext(context.Background(), nil) != context.Background() {
		t.Fatal("nil runtime must not be injected")
	}
}

func TestDebugServerEndpoints(t *testing.T) {
	rt := New()
	rt.Metrics().Counter("evals.trained").Add(3)
	srv, err := StartDebug("127.0.0.1:0", rt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	var snap Snapshot
	if err := json.Unmarshal(get("/metrics"), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counter("evals.trained") != 3 {
		t.Fatalf("/metrics lost the counter: %+v", snap)
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Fatal("/debug/pprof/ index does not list profiles")
	}
	// Progress is the pool.* counters on /metrics; there is no second route.
	resp, err := http.Get(fmt.Sprintf("http://%s/progress", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /progress: status %d, want 404", resp.StatusCode)
	}
}
