package obs

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSetupWithoutFlags: no trace and no listener leave the context
// without a runtime, so the run takes the uninstrumented path.
func TestSetupWithoutFlags(t *testing.T) {
	ctx, stop, err := Setup(context.Background(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	if FromContext(ctx) != nil {
		t.Fatal("Setup with no flag set attached a runtime")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// isOpen reports whether the process holds a descriptor of the file path.
func isOpen(t *testing.T, path string) bool {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this system")
	}
	for _, fd := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); target == path {
			return true
		}
	}
	return false
}

// TestSetupTraceAndListener: both set, the runtime traces into the file,
// and stop leaves every span written and the file closed.
func TestSetupTraceAndListener(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, stop, err := Setup(context.Background(), path, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := FromContext(ctx).Tracer()
	tr.EndSpan(tr.StartSpan(0, "run"))
	if !isOpen(t, path) {
		t.Fatal("no descriptor of the open trace file found")
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if isOpen(t, path) {
		t.Fatal("stop left the trace file open")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("trace holds %d lines, want the span's start and end:\n%s", lines, data)
	}
}

// TestSetupUnwritableTrace: a trace that cannot be flushed (a full device)
// makes stop fail, naming the trace, for every command that uses Setup.
func TestSetupUnwritableTrace(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	ctx, stop, err := Setup(context.Background(), "/dev/full", "")
	if err != nil {
		t.Fatal(err)
	}
	tr := FromContext(ctx).Tracer()
	tr.EndSpan(tr.StartSpan(0, "run"))
	if err := stop(); err == nil || !strings.Contains(err.Error(), "trace /dev/full") {
		t.Fatalf("stop returned %v, want a trace /dev/full error", err)
	}
}

// TestSetupListenerFailureClosesTrace: a debug address that cannot bind
// fails Setup, and the trace file it already opened is closed again.
func TestSetupListenerFailureClosesTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	ctx, _, err := Setup(context.Background(), path, "127.0.0.1:-1")
	if err == nil || !strings.Contains(err.Error(), "debug listener") {
		t.Fatalf("Setup with an unbindable address returned %v, want a debug listener error", err)
	}
	if FromContext(ctx) != nil {
		t.Fatal("a failed Setup attached a runtime")
	}
	if isOpen(t, path) {
		t.Fatal("the failed Setup left the trace file open")
	}
}
