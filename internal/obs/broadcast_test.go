package obs

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func recvAll(c <-chan []byte) []string {
	var out []string
	for {
		select {
		case line, ok := <-c:
			if !ok {
				return out
			}
			out = append(out, string(line))
		default:
			return out
		}
	}
}

// TestBroadcastSinkReplayAndLive: a subscriber attached mid-stream first
// replays the ring, then receives live lines; lines are copies, immune to
// the tracer reusing its buffer.
func TestBroadcastSinkReplayAndLive(t *testing.T) {
	b := NewBroadcastSink(8)
	buf := []byte("line-0\n")
	if err := b.Emit(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("XXXXXX\n")) // tracer reuses its buffer; the sink must have copied
	sub := b.Subscribe(16)
	defer sub.Close()
	if err := b.Emit([]byte("line-1\n")); err != nil {
		t.Fatal(err)
	}
	got := recvAll(sub.C)
	want := []string{"line-0\n", "line-1\n"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %q, want %q", got, want)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0", sub.Dropped())
	}
}

// TestBroadcastSinkRingBound: the replay ring keeps only the newest lines.
func TestBroadcastSinkRingBound(t *testing.T) {
	b := NewBroadcastSink(4)
	for i := 0; i < 10; i++ {
		_ = b.Emit([]byte(fmt.Sprintf("l%d", i)))
	}
	sub := b.Subscribe(16)
	defer sub.Close()
	got := recvAll(sub.C)
	if len(got) != 4 || got[0] != "l6" || got[3] != "l9" {
		t.Fatalf("replay %q, want [l6 l7 l8 l9]", got)
	}
}

// TestBroadcastSinkSlowSubscriberDrops: a full subscriber buffer drops
// lines (counted) instead of blocking Emit.
func TestBroadcastSinkSlowSubscriberDrops(t *testing.T) {
	b := NewBroadcastSink(4)
	sub := b.Subscribe(2)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		_ = b.Emit([]byte{byte('a' + i)})
	}
	if got := sub.Dropped(); got != 3 {
		t.Fatalf("dropped %d, want 3", got)
	}
	if got := recvAll(sub.C); len(got) != 2 || got[0] != "a" {
		t.Fatalf("buffered %q, want [a b]", got)
	}
}

// TestBroadcastSinkCloseOrdering: Close shuts every subscriber channel;
// closing a subscription twice, or after the sink closed, is safe; Emit and
// Subscribe after Close are no-ops.
func TestBroadcastSinkCloseOrdering(t *testing.T) {
	b := NewBroadcastSink(4)
	s1 := b.Subscribe(4)
	s2 := b.Subscribe(4)
	s1.Close()
	s1.Close() // idempotent
	b.Close()
	b.Close()  // idempotent
	s2.Close() // after sink close: must not double-close the channel
	if _, ok := <-s2.C; ok {
		t.Fatal("s2.C still open after sink Close")
	}
	if err := b.Emit([]byte("late")); err != nil {
		t.Fatal(err)
	}
	s3 := b.Subscribe(4)
	if _, ok := <-s3.C; ok {
		t.Fatal("subscription on a closed sink must start closed")
	}
	s3.Close()
}

// TestBroadcastSinkConcurrent hammers Emit/Subscribe/Close from many
// goroutines; run under -race this is the data-race check for the SSE
// bridge's shared state.
func TestBroadcastSinkConcurrent(t *testing.T) {
	b := NewBroadcastSink(64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = b.Emit([]byte(fmt.Sprintf("g%d-%d", g, i)))
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := b.Subscribe(8)
				recvAll(sub.C)
				sub.Close()
			}
		}()
	}
	wg.Wait()
	b.Close()
}

// TestMultiSinkFanOutAndFirstError: every member sees every line; the
// first failure is reported but does not stop later members.
func TestMultiSinkFanOutAndFirstError(t *testing.T) {
	var a, c bytes.Buffer
	failing := sinkFunc(func([]byte) error { return fmt.Errorf("disk full") })
	m := MultiSink{WriterSink{&a}, failing, WriterSink{&c}}
	err := m.Emit([]byte("x\n"))
	if err == nil || err.Error() != "disk full" {
		t.Fatalf("err %v, want disk full", err)
	}
	if a.String() != "x\n" || c.String() != "x\n" {
		t.Fatalf("members saw %q / %q, want both x", a.String(), c.String())
	}
}

type sinkFunc func([]byte) error

func (f sinkFunc) Emit(line []byte) error { return f(line) }
