package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// newTestServer builds a Server over a temp dir and registers cleanup.
// testing.TB so benchmarks can reuse it.
func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// postJob submits spec over HTTP and returns the response code, the decoded
// Status (on 202), the error body (otherwise), and the Retry-After header.
func postJob(t *testing.T, url string, spec JobSpec) (int, Status, errorBody, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	retryAfter := resp.Header.Get("Retry-After")
	if resp.StatusCode == http.StatusAccepted {
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, st, errorBody{}, retryAfter
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, Status{}, eb, retryAfter
}

// awaitState polls a job over HTTP until it reaches want (or any terminal
// state, which fails the test if it is not want).
func awaitState(t *testing.T, url, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

// result reads a done job's pool back from its checkpoint, the way every
// reader after release does; nil unless the job is done and its checkpoint
// reads back whole.
func (j *Job) result() *bench.Pool {
	st := j.Status()
	if st.State != StateDone {
		return nil
	}
	recs, err := j.readBack(st.RecordsDone)
	if err != nil {
		return nil
	}
	return &bench.Pool{Records: recs}
}

// checkInvariant asserts the package's accounting identity at quiesce:
// admitted + resumed == done + failed + drained + queued + running.
func checkInvariant(t *testing.T, s *Server) {
	t.Helper()
	snap := s.rt.Metrics().Snapshot()
	c := snap.Counters
	g := snap.Gauges
	left := c["serve.queue.admitted"] + c["serve.job.resumed"]
	right := c["serve.job.done"] + c["serve.job.failed"] + c["serve.job.drained"] +
		g["serve.queue.depth"] + g["serve.jobs.running"]
	if left != right {
		t.Fatalf("queue invariant violated: admitted+resumed=%d, done+failed+drained+queued+running=%d (counters %v, gauges %v)",
			left, right, c, g)
	}
}

// TestJobLifecycleOverHTTP drives one real (tiny) selection job through the
// HTTP API end to end: submit, poll to done, fetch the CSV result, and check
// the observability endpoints along the way.
func TestJobLifecycleOverHTTP(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, PoolWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Scenarios: 2, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}, Tenant: "alice"}
	code, st, _, _ := postJob(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d, want 202", code)
	}
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status: %+v", st)
	}

	// A job that is not done yet answers 409 on the result endpoint.
	if resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
			t.Fatalf("early result: code %d", resp.StatusCode)
		}
	}

	final := awaitState(t, ts.URL, st.ID, StateDone)
	if final.RecordsDone != spec.Scenarios {
		t.Fatalf("records_done = %d, want %d", final.RecordsDone, spec.Scenarios)
	}
	if final.Cost <= 0 {
		t.Fatalf("done job has cost %g, want > 0", final.Cost)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	csvBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/csv" {
		t.Fatalf("result: code %d type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.HasPrefix(string(csvBody), "scenario,") {
		t.Fatalf("result CSV missing header: %q", string(csvBody[:min(64, len(csvBody))]))
	}

	// Unknown jobs are 404 on both endpoints, and there is no /progress
	// route: progress is /metrics and GET /jobs/{id}.
	for _, path := range []string{"/jobs/job-999999", "/jobs/job-999999/result", "/progress"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: code %d, want 404", path, resp.StatusCode)
		}
	}

	// Observability surface: /metrics and /healthz are JSON, /healthz says
	// serving, and the service counters moved.
	for _, path := range []string{"/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			t.Fatalf("GET %s: code %d, valid JSON %v", path, resp.StatusCode, json.Valid(body))
		}
		if path == "/healthz" && !strings.Contains(string(body), `"serving"`) {
			t.Fatalf("healthz: %s", body)
		}
	}
	snap := srv.rt.Metrics().Snapshot()
	if snap.Counters["serve.queue.admitted"] != 1 || snap.Counters["serve.job.done"] != 1 {
		t.Fatalf("counters: %v", snap.Counters)
	}
	checkInvariant(t, srv)
}

// TestConcurrentJobsProgress pins the single progress source on a daemon
// running two jobs at once: each job's records_done is the size of its own
// record index, and the pool counters on /metrics add up across both jobs
// instead of one job's pool resetting the other's.
func TestConcurrentJobsProgress(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, PoolWorkers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var ids []string
	for _, n := range []int{6, 2} {
		spec := JobSpec{Scenarios: n, Seed: 3, MaxEvals: 10, Datasets: []string{"COMPAS"}}
		code, st, eb, _ := postJob(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d scenarios: code %d (%s)", n, code, eb.Error)
		}
		ids = append(ids, st.ID)
	}
	var total int64
	for _, id := range ids {
		st := awaitState(t, ts.URL, id, StateDone)
		if st.RecordsDone != st.RecordsTotal {
			t.Fatalf("job %s: records_done %d, records_total %d", id, st.RecordsDone, st.RecordsTotal)
		}
		total += int64(st.RecordsTotal)
	}

	snap := srv.rt.Metrics().Snapshot()
	planned := snap.Counter("pool.scenarios_planned")
	resumed := snap.Counter("pool.checkpoint.resumed")
	executed := snap.Counter("pool.scenarios_executed")
	if planned != total || resumed+executed != total {
		t.Fatalf("pool.scenarios_planned %d, resumed %d + executed %d, want %d", planned, resumed, executed, total)
	}
	// No store and no failures: every executed scenario started all 16
	// strategies plus the baseline.
	if runs, want := snap.Counter("strategy.runs"), int64(len(core.StrategyNames)+1)*executed; runs != want {
		t.Fatalf("strategy.runs %d, want %d", runs, want)
	}
	checkInvariant(t, srv)
}

// TestAdmissionControlQueueFull pins the backpressure contract: with the
// single worker wedged and the bounded queue full, a further submission is
// answered immediately with 429 + Retry-After — the accept loop never
// blocks — and the metrics invariant holds once the backlog drains.
func TestAdmissionControlQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 8)
	blockingBuild := func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		started <- cfg.Label
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &bench.Pool{Config: cfg}, nil
	}
	srv := newTestServer(t, Config{Workers: 1, QueueCap: 2, BuildPool: blockingBuild})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Scenarios: 1, Seed: 1, Datasets: []string{"COMPAS"}}

	// Job 1 is dequeued by the lone worker and wedges in the build.
	code, first, _, _ := postJob(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("job 1: code %d", code)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up job 1")
	}

	// Jobs 2 and 3 fill the queue to capacity.
	var ids []string
	for i := 0; i < 2; i++ {
		code, st, _, _ := postJob(t, ts.URL, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: code %d, want 202", i+2, code)
		}
		ids = append(ids, st.ID)
	}

	// The next submission must shed immediately with the typed reason.
	submitted := time.Now()
	code, _, eb, retryAfter := postJob(t, ts.URL, spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: code %d, want 429", code)
	}
	if eb.Reason != RejectQueueFull {
		t.Fatalf("overflow reason = %q, want %q", eb.Reason, RejectQueueFull)
	}
	if retryAfter != fmt.Sprint(retryAfterSeconds) {
		t.Fatalf("Retry-After = %q", retryAfter)
	}
	if d := time.Since(submitted); d > 5*time.Second {
		t.Fatalf("queue-full rejection took %v; admission must not block", d)
	}

	// Release the worker; the whole backlog completes.
	close(release)
	for _, id := range append([]string{first.ID}, ids...) {
		awaitState(t, ts.URL, id, StateDone)
	}

	snap := srv.rt.Metrics().Snapshot()
	if got := snap.Counters["serve.queue.admitted"]; got != 3 {
		t.Fatalf("admitted = %d, want 3", got)
	}
	if got := snap.Counters["serve.queue.rejected.full"]; got != 1 {
		t.Fatalf("rejected.full = %d, want 1", got)
	}
	if got := snap.Gauges["serve.queue.depth"]; got != 0 {
		t.Fatalf("queue.depth = %d at quiesce", got)
	}
	if got := snap.Gauges["serve.jobs.running"]; got != 0 {
		t.Fatalf("jobs.running = %d at quiesce", got)
	}
	checkInvariant(t, srv)
}

// TestTenantBudgetRejection pins per-tenant cost accounting: once a tenant's
// completed jobs have spent its simulated-cost budget, further submissions
// get 429 with the budget reason while other tenants are unaffected.
func TestTenantBudgetRejection(t *testing.T) {
	costBuild := func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		rec := bench.Record{ID: 0, Dataset: "COMPAS",
			Results: map[string]core.RunResult{"SFS(NR)": {TotalCost: 100}}}
		return &bench.Pool{Config: cfg, Records: []bench.Record{rec}}, nil
	}
	srv := newTestServer(t, Config{
		Workers:       1,
		BuildPool:     costBuild,
		TenantBudgets: map[string]float64{"alice": 150},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Scenarios: 1, Seed: 1, Datasets: []string{"COMPAS"}, Tenant: "alice"}

	// First job: spent 0 < 150, admitted; completion charges 100.
	code, st, _, _ := postJob(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("alice job 1: code %d", code)
	}
	if got := awaitState(t, ts.URL, st.ID, StateDone); got.Cost != 100 {
		t.Fatalf("alice job 1 cost = %g, want 100", got.Cost)
	}

	// Second job: spent 100 < 150, still admitted; charges another 100.
	code, st, _, _ = postJob(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("alice job 2: code %d", code)
	}
	awaitState(t, ts.URL, st.ID, StateDone)

	// Third job: spent 200 >= 150 — typed rejection with Retry-After.
	code, _, eb, retryAfter := postJob(t, ts.URL, spec)
	if code != http.StatusTooManyRequests {
		t.Fatalf("alice job 3: code %d, want 429", code)
	}
	if eb.Reason != RejectBudget {
		t.Fatalf("alice job 3 reason = %q, want %q", eb.Reason, RejectBudget)
	}
	if retryAfter == "" {
		t.Fatal("budget rejection missing Retry-After")
	}

	// An unlisted tenant has no budget and sails through.
	bob := spec
	bob.Tenant = "bob"
	code, st, _, _ = postJob(t, ts.URL, bob)
	if code != http.StatusAccepted {
		t.Fatalf("bob: code %d, want 202", code)
	}
	awaitState(t, ts.URL, st.ID, StateDone)

	if got := srv.rt.Metrics().Snapshot().Counters["serve.queue.rejected.budget"]; got != 1 {
		t.Fatalf("rejected.budget = %d, want 1", got)
	}
	checkInvariant(t, srv)
}

// TestRefusedSubmissionsCreateNoTenant pins that a refusal leaves no tenant
// account behind: valid specs from many distinct tenants against a full
// queue (one blocked job slot, QueueCap 1) leave as many accounts, and as
// high a serve.tenants gauge, as there were admissions.
func TestRefusedSubmissionsCreateNoTenant(t *testing.T) {
	started := make(chan struct{}, 1)
	srv := newTestServer(t, Config{Workers: 1, QueueCap: 1,
		BuildPool: func(ctx context.Context, cfg bench.Config, _ bench.RunOptions) (*bench.Pool, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done()
			return &bench.Pool{Config: cfg, Interrupted: true}, nil
		}})
	spec := func(i int) JobSpec {
		return JobSpec{Scenarios: 1, Seed: 1, Datasets: []string{"COMPAS"}, Tenant: fmt.Sprintf("tenant-%04d", i)}
	}
	if _, reason, err := srv.Submit(spec(0)); err != nil {
		t.Fatalf("first submission refused (%s): %v", reason, err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("worker never picked up the first job")
	}
	admitted, full := 1, 0
	for i := 1; i < 1000; i++ {
		switch _, reason, err := srv.Submit(spec(i)); {
		case err == nil:
			admitted++
		case reason == RejectQueueFull:
			full++
		default:
			t.Fatalf("submission %d refused (%s): %v", i, reason, err)
		}
	}
	if admitted != 2 || full != 998 {
		t.Fatalf("admitted %d, refused as queue-full %d; want 2 and 998", admitted, full)
	}
	if got := srv.rt.Metrics().Snapshot().Gauges["serve.tenants"]; got != int64(admitted) {
		t.Fatalf("serve.tenants = %d after %d admissions", got, admitted)
	}
	srv.mu.Lock()
	accounts := len(srv.tenants)
	srv.mu.Unlock()
	if accounts != admitted {
		t.Fatalf("%d tenant accounts after %d admissions", accounts, admitted)
	}
}

// TestDrainingRejectsSubmissions pins the shutdown side of admission: once a
// drain has begun, new submissions get 503 + Retry-After.
func TestDrainingRejectsSubmissions(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	code, _, eb, retryAfter := postJob(t, ts.URL, JobSpec{Scenarios: 1, Datasets: []string{"COMPAS"}})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: code %d, want 503", code)
	}
	if eb.Reason != RejectDraining || retryAfter == "" {
		t.Fatalf("draining rejection: reason %q retry-after %q", eb.Reason, retryAfter)
	}
	// Drain is idempotent.
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidSpecsRejected pins admission validation: malformed specs are
// 400 with the invalid reason and never occupy a queue slot.
func TestInvalidSpecsRejected(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, MaxScenarios: 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []JobSpec{
		{Scenarios: 0},  // below minimum
		{Scenarios: 11}, // above server cap
		{Scenarios: 1, Datasets: []string{"no-such-set"}}, // unknown dataset
		{Scenarios: 1, MaxEvals: -1},                      // negative evals
		{Scenarios: 1, DeadlineSeconds: -2},               // negative deadline
	}
	for i, spec := range cases {
		code, _, eb, _ := postJob(t, ts.URL, spec)
		if code != http.StatusBadRequest || eb.Reason != RejectInvalid {
			t.Fatalf("case %d (%+v): code %d reason %q", i, spec, code, eb.Reason)
		}
	}
	// Unknown JSON fields are rejected too (strict decode).
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"scenarios":1,"bogus":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: code %d, want 400", resp.StatusCode)
	}
	if got := srv.rt.Metrics().Snapshot().Counters["serve.queue.rejected.invalid"]; got != int64(len(cases)) {
		t.Fatalf("rejected.invalid = %d, want %d", got, len(cases))
	}
	checkInvariant(t, srv)
}

// TestWorkerPanicIsolated pins panic isolation: a panic inside a job's pool
// build must not kill the worker — the job fails typed as a panic and the
// next job on the same worker completes normally.
func TestWorkerPanicIsolated(t *testing.T) {
	calls := 0
	panicOnceBuild := func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
		calls++
		if calls == 1 {
			panic("scripted build panic")
		}
		return &bench.Pool{Config: cfg}, nil
	}
	srv := newTestServer(t, Config{Workers: 1, BuildPool: panicOnceBuild})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := JobSpec{Scenarios: 1, Seed: 1, Datasets: []string{"COMPAS"}}
	_, first, _, _ := postJob(t, ts.URL, spec)
	st := awaitState(t, ts.URL, first.ID, StateFailed)
	if st.FailureCategory != string(core.FailurePanic) {
		t.Fatalf("failure category = %q, want %q (error %q)", st.FailureCategory, core.FailurePanic, st.Error)
	}
	if !strings.Contains(st.Error, "panic") {
		t.Fatalf("error %q does not mention the panic", st.Error)
	}

	_, second, _, _ := postJob(t, ts.URL, spec)
	awaitState(t, ts.URL, second.ID, StateDone)
	checkInvariant(t, srv)
}
