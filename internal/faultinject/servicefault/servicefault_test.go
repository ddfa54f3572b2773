package servicefault_test

import (
	"context"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/faultinject"
	"github.com/declarative-fs/dfs/internal/faultinject/servicefault"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
)

// await polls a job until it reaches want, failing fast on a different
// terminal state.
func await(t *testing.T, s *serve.Server, id string, want serve.State) serve.Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		job, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := job.Status()
		if st.State == want {
			return st
		}
		if st.State == serve.StateDone || st.State == serve.StateFailed {
			t.Fatalf("job %s reached %s (error %q, category %q), want %s",
				id, st.State, st.Error, st.FailureCategory, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return serve.Status{}
}

func submit(t *testing.T, s *serve.Server, spec serve.JobSpec) string {
	t.Helper()
	job, reason, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v (%s)", err, reason)
	}
	return job.ID
}

// TestServiceFaultScript drives the serving layer end to end through the
// service-shaped fault catalogue — transient failure with retry, panic
// mid-job, slow worker against a deadline, queue-full burst, and a drain
// landing mid-run — and asserts every submitted job ends in a typed state
// (done / failed / drained→resumed→done) with nothing hung and nothing lost.
//
// A single worker plus strictly sequential submissions make the scripted
// build-call indices deterministic: call 0/1 are job-000000's two attempts,
// call 2 is job-000001, call 3 is job-000002, call 4 is job-000003. The two
// queued jobs behind the wedged worker never get a build call before the
// drain, and the restarted server runs an unscripted builder.
func TestServiceFaultScript(t *testing.T) {
	dir := t.TempDir()
	plan := map[int]faultinject.Fault{
		0: {Kind: faultinject.TransientError},                 // job 0, attempt 1
		2: {Kind: faultinject.Panic},                          // job 1
		3: {Kind: faultinject.Delay, Sleep: 30 * time.Second}, // job 2 (deadline 200ms)
		4: {Kind: faultinject.Delay, Sleep: 30 * time.Second}, // job 3 (wedged until drain)
	}
	scripted := servicefault.ScriptPoolBuilder(
		servicefault.PoolBuilder(bench.BuildPoolResumed), plan)

	rtA := obs.New()
	srvA, err := serve.New(serve.Config{
		Dir: dir, Workers: 1, QueueCap: 2, PoolWorkers: 2,
		BuildPool: serve.PoolBuilder(scripted), Obs: rtA,
	})
	if err != nil {
		t.Fatal(err)
	}

	tiny := serve.JobSpec{Scenarios: 1, Seed: 3, MaxEvals: 8, Datasets: []string{"COMPAS"}}

	// Job 0: first attempt fails transiently; the deterministic retry policy
	// grants another, which succeeds.
	id0 := submit(t, srvA, tiny)
	st := await(t, srvA, id0, serve.StateDone)
	if st.Retries != 1 {
		t.Fatalf("job 0 retries = %d, want 1", st.Retries)
	}

	// Job 1: the build panics; the worker survives and the job fails typed.
	id1 := submit(t, srvA, tiny)
	st = await(t, srvA, id1, serve.StateFailed)
	if st.FailureCategory != string(core.FailurePanic) {
		t.Fatalf("job 1 category = %q, want %q", st.FailureCategory, core.FailurePanic)
	}

	// Job 2: a slow worker against a 200ms deadline — typed timeout failure.
	slow := tiny
	slow.DeadlineSeconds = 0.2
	id2 := submit(t, srvA, slow)
	st = await(t, srvA, id2, serve.StateFailed)
	if st.FailureCategory != string(core.FailureTimeout) {
		t.Fatalf("job 2 category = %q, want %q", st.FailureCategory, core.FailureTimeout)
	}

	// Job 3 wedges the lone worker in a long delay...
	id3 := submit(t, srvA, tiny)
	deadline := time.Now().Add(30 * time.Second)
	for {
		job, _ := srvA.Job(id3)
		if job.Status().State == serve.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job 3 never started")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// ...jobs 4 and 5 fill the bounded queue behind it...
	id4 := submit(t, srvA, tiny)
	id5 := submit(t, srvA, tiny)
	// ...and a burst of further submissions sheds immediately, queue-full.
	for i := 0; i < 4; i++ {
		start := time.Now()
		_, reason, err := srvA.Submit(tiny)
		if err == nil || reason != serve.RejectQueueFull {
			t.Fatalf("burst %d: reason %q err %v, want queue-full rejection", i, reason, err)
		}
		if time.Since(start) > 5*time.Second {
			t.Fatal("queue-full rejection blocked")
		}
	}

	// Drain mid-run: the wedged job is canceled out of its delay and typed
	// drained; the queued jobs stay queued on disk.
	drainCtx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatal(err)
	}
	if got := mustState(t, srvA, id3); got != serve.StateDrained {
		t.Fatalf("job 3 after drain: %s, want drained", got)
	}
	for _, id := range []string{id4, id5} {
		if got := mustState(t, srvA, id); got != serve.StateQueued {
			t.Fatalf("job %s after drain: %s, want queued", id, got)
		}
	}

	// Accounting at quiesce: every admission is accounted for, exactly once.
	snap := rtA.Metrics().Snapshot()
	c, g := snap.Counters, snap.Gauges
	if c["serve.queue.admitted"] != 6 || c["serve.queue.rejected.full"] != 4 {
		t.Fatalf("admission counters: %v", c)
	}
	left := c["serve.queue.admitted"] + c["serve.job.resumed"]
	right := c["serve.job.done"] + c["serve.job.failed"] + c["serve.job.drained"] +
		g["serve.queue.depth"] + g["serve.jobs.running"]
	if left != right {
		t.Fatalf("invariant violated on server A: %d != %d (%v, %v)", left, right, c, g)
	}

	// Restart with an unscripted builder: the drained and queued jobs all
	// resume and terminate; the failed jobs stay failed.
	srvB, err := serve.New(serve.Config{Dir: dir, Workers: 1, PoolWorkers: 2, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	for _, id := range []string{id3, id4, id5} {
		st := await(t, srvB, id, serve.StateDone)
		if !st.Resumed {
			t.Fatalf("job %s finished without the resumed flag", id)
		}
	}
	wantTerminal := map[string]serve.State{
		id0: serve.StateDone, id1: serve.StateFailed, id2: serve.StateFailed,
		id3: serve.StateDone, id4: serve.StateDone, id5: serve.StateDone,
	}
	for id, want := range wantTerminal {
		if got := mustState(t, srvB, id); got != want {
			t.Fatalf("job %s final state = %s, want %s", id, got, want)
		}
	}
}

func mustState(t *testing.T, s *serve.Server, id string) serve.State {
	t.Helper()
	job, ok := s.Job(id)
	if !ok {
		t.Fatalf("job %s not found", id)
	}
	return job.Status().State
}
