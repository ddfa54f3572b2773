package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/faultinject/servicefault"
	"github.com/declarative-fs/dfs/internal/obs"
)

// TestDaemonResumeBitIdentical is the daemon-path extension of the bench
// package's TestResumeBitIdentical: two jobs are in flight when a graceful
// drain lands, both are typed drained with their completed scenarios
// checkpointed, and a fresh server over the same directory resumes them to
// results byte-identical to uninterrupted runs.
//
// The drain point is pinned deterministically with a gated sink (appends
// beyond the first block until the drain cancels them) instead of a timer,
// so the test is stable under -race slowdown.
func TestDaemonResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	specs := []JobSpec{
		{Scenarios: 3, Seed: 3, MaxEvals: 12, Datasets: []string{"COMPAS", "Indian Liver Patient", "Brazil Tourism"}},
		{Scenarios: 3, Seed: 4, MaxEvals: 12, Datasets: []string{"COMPAS", "Indian Liver Patient", "Brazil Tourism"}},
	}

	// Server A: both jobs run concurrently; each checkpoints its first record
	// and then wedges in the gated sink until the drain cancels it.
	release := make(chan struct{})
	appended := make(chan string, 64)
	gated := servicefault.GatedSinkBuilder(
		servicefault.PoolBuilder(bench.BuildPoolResumed),
		release,
		func(label string, n int) {
			select {
			case appended <- label:
			default:
			}
		},
	)
	srvA, err := New(Config{
		Dir: dir, Workers: 2, PoolWorkers: 2,
		BuildPool: PoolBuilder(gated), Obs: obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}

	var ids []string
	for i, spec := range specs {
		job, reason, err := srvA.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v (%s)", i, err, reason)
		}
		ids = append(ids, job.ID)
	}

	// Wait until every job has checkpointed at least one record, so the drain
	// provably lands mid-run with partial durable state.
	seen := map[string]bool{}
	timeout := time.After(2 * time.Minute)
	for len(seen) < len(ids) {
		select {
		case label := <-appended:
			seen[label] = true
		case <-timeout:
			t.Fatalf("jobs never reached their first checkpointed record (saw %v)", seen)
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		job, ok := srvA.Job(id)
		if !ok {
			t.Fatalf("job %s lost during drain", id)
		}
		if got := job.State(); got != StateDrained {
			t.Fatalf("job %s after drain: state %s, want %s", id, got, StateDrained)
		}
		st := job.Status()
		if st.RecordsDone < 1 {
			t.Fatalf("job %s drained with no checkpointed records", id)
		}
	}
	snapA := srvA.rt.Metrics().Snapshot()
	if got := snapA.Counters["serve.job.drained"]; got != int64(len(ids)) {
		t.Fatalf("serve.job.drained = %d, want %d", got, len(ids))
	}
	checkInvariant(t, srvA)

	// Server B: a restarted daemon over the same directory re-adopts both
	// jobs and finishes them with the default (ungated) builder.
	srvB, err := New(Config{Dir: dir, Workers: 2, PoolWorkers: 2, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	ts := httptest.NewServer(srvB.Handler())
	defer ts.Close()

	for _, id := range ids {
		st := awaitState(t, ts.URL, id, StateDone)
		if !st.Resumed {
			t.Fatalf("job %s completed without the resumed flag", id)
		}
		if st.RecordsDone != st.Spec.Scenarios {
			t.Fatalf("job %s: records_done %d, want %d", id, st.RecordsDone, st.Spec.Scenarios)
		}
	}
	snapB := srvB.rt.Metrics().Snapshot()
	if got := snapB.Counters["serve.job.resumed"]; got != int64(len(ids)) {
		t.Fatalf("serve.job.resumed = %d, want %d", got, len(ids))
	}
	checkInvariant(t, srvB)

	// Bit-identical: each resumed job's result must serialize to exactly the
	// bytes of an uninterrupted build of the same spec.
	for i, id := range ids {
		job, _ := srvB.Job(id)
		pool := job.result()
		if pool == nil {
			t.Fatalf("job %s done but has no result", id)
		}
		var got bytes.Buffer
		if err := bench.WritePoolCSV(&got, pool); err != nil {
			t.Fatal(err)
		}

		ref, err := bench.BuildPoolResumed(context.Background(),
			specs[i].benchConfig(srvB.cfg, id), bench.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := bench.WritePoolCSV(&want, ref); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("job %s: resumed result differs from uninterrupted run\nresumed:\n%s\nuninterrupted:\n%s",
				id, got.String(), want.String())
		}

		// The HTTP result endpoint serves the same bytes.
		resp, err := http.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		httpCSV, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("result %s: code %d err %v", id, resp.StatusCode, err)
		}
		if !bytes.Equal(httpCSV, want.Bytes()) {
			t.Fatalf("job %s: HTTP result differs from uninterrupted run", id)
		}
	}
}

// TestDrainEndsQueuedJobStreams pins that a drain ends the followed streams
// of a job it will never run, also when the Handler is mounted on a
// listener the caller owns (Drain then closes no connection): the result
// and checkpoint streams of a job still queued end with its state in the
// trailer, instead of waiting (the checkpoint stream sending keepalives)
// until the client gives up.
func TestDrainEndsQueuedJobStreams(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1,
		BuildPool: func(ctx context.Context, cfg bench.Config, _ bench.RunOptions) (*bench.Pool, error) {
			<-ctx.Done()
			return &bench.Pool{Config: cfg, Interrupted: true}, nil
		}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	code, running, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	awaitState(t, ts.URL, running.ID, StateRunning)
	code, queued, _, _ := postJob(t, ts.URL, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}

	// Bounded so that a stream the drain leaves open fails the test instead
	// of hanging it.
	client := &http.Client{Timeout: 10 * time.Second}
	type ended struct {
		path, state string
		err         error
	}
	results := make(chan ended, 2)
	for _, path := range []string{"/result?follow=1", "/checkpoint?follow=1"} {
		resp, err := client.Get(ts.URL + "/jobs/" + queued.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d", path, resp.StatusCode)
		}
		go func() {
			_, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- ended{path, resp.Trailer.Get(trailerJobState), err}
		}()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		e := <-results
		if e.err != nil {
			t.Fatalf("%s of the queued job did not end at drain: %v", e.path, e.err)
		}
		if e.state != string(StateQueued) {
			t.Fatalf("%s ended with %s = %q, want %q", e.path, trailerJobState, e.state, StateQueued)
		}
	}
	if j, _ := srv.Job(running.ID); j.State() != StateDrained {
		t.Fatalf("running job %s is %s after the drain, want %s", running.ID, j.State(), StateDrained)
	}
	checkInvariant(t, srv)
}

// TestDrainEndsQueuedJobStreamsUnderStart is TestDrainEndsQueuedJobStreams
// on the listener Start owns: the drain must end the queued job's followed
// result and checkpoint streams with its state in the trailer before it
// shuts the listener down, not cut them with no trailer.
func TestDrainEndsQueuedJobStreamsUnderStart(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1,
		BuildPool: func(ctx context.Context, cfg bench.Config, _ bench.RunOptions) (*bench.Pool, error) {
			<-ctx.Done()
			return &bench.Pool{Config: cfg, Interrupted: true}, nil
		}})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	code, running, _, _ := postJob(t, base, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	awaitState(t, base, running.ID, StateRunning)
	code, queued, _, _ := postJob(t, base, streamSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}

	// Bounded so that a stream the drain leaves open fails the test instead
	// of hanging it.
	client := &http.Client{Timeout: 10 * time.Second}
	type ended struct {
		path, state string
		err         error
	}
	results := make(chan ended, 2)
	for _, path := range []string{"/result?follow=1", "/checkpoint?follow=1"} {
		resp, err := client.Get(base + "/jobs/" + queued.ID + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: code %d", path, resp.StatusCode)
		}
		go func() {
			_, err := io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			results <- ended{path, resp.Trailer.Get(trailerJobState), err}
		}()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		e := <-results
		if e.err != nil {
			t.Fatalf("%s of the queued job did not end cleanly at drain: %v", e.path, e.err)
		}
		if e.state != string(StateQueued) {
			t.Fatalf("%s ended with %s = %q, want %q", e.path, trailerJobState, e.state, StateQueued)
		}
	}
	if j, _ := srv.Job(running.ID); j.State() != StateDrained {
		t.Fatalf("running job %s is %s after the drain, want %s", running.ID, j.State(), StateDrained)
	}
	checkInvariant(t, srv)
}
