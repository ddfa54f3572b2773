package serve

// Multi-daemon fan-out: a coordinator daemon partitions one submitted job
// across N worker daemons and reassembles the result bit-identically.
//
// The coordinator is an ordinary Server whose Config.BuildPool is a
// Fanout — every other mechanism (bounded admission, deadlines, job-level
// retry, graceful drain with resume, result streaming) applies to fanned-out
// jobs unchanged, because from the server's perspective the Fanout is just a
// slow pool builder. Workers are plain dfsd processes with no special mode:
// the coordinator submits shard jobs (JobSpec.ShardIndex/ShardCount, the
// round-robin partition scenario i % count == index) over the public HTTP
// API and merges their records. Determinism does the heavy lifting: a shard
// job recomputed on a different worker (or resubmitted after a worker died)
// produces byte-identical records, so reassignment needs no state handoff.
//
// Scheduling is a micro-shard work queue, not static partitioning: the job
// splits into ~defaultShardsPerWorker×len(Workers) small shards (capped by
// the scenario count) that workers *pull* as they finish, so a fast worker
// naturally completes more shards and the job's wall clock tracks the
// fleet's aggregate speed instead of its slowest member. Micro-shard
// membership depends only on the spec (scenario i % count == index), never
// on observed speed, so the partition is deterministic and a retried shard
// is byte-identical wherever it lands. One rule sizes a claim: a worker
// takes two shards while the backlog exceeds the fleet size, so it submits
// its next shard while the previous one streams, and one shard after that.
// A requeued shard is never handed straight back to the worker that just
// failed it while a shard it did not fail is pending. A /healthz probe
// gates every claim, so dispatch only targets live, serving workers; a
// worker that fails pollFailLimit consecutive probes retires from this
// attempt (the server's job-level retry re-probes it later).
//
// Results stream *through* the coordinator while shards run, and the
// worker's GET /jobs/{id}/checkpoint?follow=1 NDJSON stream is the only
// transfer path: each dispatch tails it and feeds every record into the
// merge map and opts.Sink the moment it arrives, so the coordinator's own
// checkpoint — and its ?follow=1 clients — fill in record-sized steps. A
// broken stream re-attaches with &from= set one past the last delivered
// scenario ID, so no record crosses the wire twice.
//
// Failure semantics per shard: transport errors, 429/503 rejections, a
// worker job ending drained (or still queued when its worker drained), a
// run of failed health probes, or pollFailLimit consecutive follow attaches
// that deliver no record are transient — the shard requeues at the front
// and the next live worker picks it up, while the failing worker backs off
// under the coordinator's RetryPolicy. A 400 rejection, a worker job ending failed, a stream for a
// different pool, or a record outside the shard or behind the cursor is
// permanent and fails the whole job with the worker's typed reason.
// Records land in the coordinator's own checkpoint as they stream, so a
// coordinator crash or drain resumes by re-running only the shards with
// missing records.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
)

// defaultShardsPerWorker is the micro-shard multiplier: small enough that
// per-shard submit/stream overhead stays negligible, large enough that a 4×
// slower worker strands at most ~1/4 of one worker-share of work behind it.
const defaultShardsPerWorker = 4

// controlClient carries submits, status lookups and health probes. Follow
// streams use http.DefaultClient instead: a shard legitimately runs for
// minutes, so their liveness is watchdogged against the worker's keepalive
// heartbeats rather than bounded by an overall timeout.
var controlClient = &http.Client{Timeout: 10 * time.Second}

// Fanout is a PoolBuilder that executes a job by sharding it across worker
// daemons. Use it as Config.BuildPool on the coordinator server.
type Fanout struct {
	// Workers are the base URLs of the worker daemons (e.g.
	// "http://127.0.0.1:8101"). Required, at least one.
	Workers []string
	// Deprecated: SpoolDir is ignored. The coordinator keeps no spool: a
	// broken follow stream re-attaches at its scenario cursor instead of
	// downloading the worker's checkpoint.
	SpoolDir string
	// Retry bounds per-shard reassignment attempts and paces a failing
	// worker's backoff; the zero value means core.DefaultTransientRetries
	// immediate retries.
	Retry core.RetryPolicy
	// Logf receives coordinator log lines; nil discards them.
	Logf func(format string, args ...any)

	// Test seams; zero means the production value. shardsPerWorker targets
	// shardsPerWorker×len(Workers) micro-shards per job (capped by the
	// scenario count; 1 is static one-shard-per-worker partitioning). poll
	// paces health waits and empty re-attaches.
	shardsPerWorker int
	poll            time.Duration
}

// workerUnavailableError marks a shard attempt that failed for reasons a
// different worker (or a later retry) can cure: connection failures, 429/503
// rejections, a drained worker job, a dead-looking worker. It is
// Transient so the server's job-level retry loop re-runs the fanout — which
// resumes from the coordinator checkpoint, re-probes every worker, and
// re-executes only the missing shards.
type workerUnavailableError struct {
	worker string
	err    error
}

func (e *workerUnavailableError) Error() string {
	return fmt.Sprintf("fanout: worker %s unavailable: %v", e.worker, e.err)
}
func (e *workerUnavailableError) Unwrap() error   { return e.err }
func (e *workerUnavailableError) Transient() bool { return true }

func (f *Fanout) logf(format string, args ...any) {
	if f.Logf != nil {
		f.Logf(format, args...)
	}
}

func (f *Fanout) pollInterval() time.Duration {
	if f.poll > 0 {
		return f.poll
	}
	return 150 * time.Millisecond
}

// BuildPool implements PoolBuilder: partition cfg's scenarios into
// micro-shards, run every shard whose records are not already in
// opts.Resume through the pull queue, and merge. Records are appended to
// opts.Sink as they stream off the workers, so the coordinator's checkpoint
// (and live result stream) fill in record-sized steps.
func (f *Fanout) BuildPool(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
	if len(f.Workers) == 0 {
		return nil, fmt.Errorf("fanout: no workers configured")
	}
	if cfg.Shard.Count > 1 {
		// The coordinator owns the partitioning; a pre-sharded job would
		// shard a shard and break the merge bookkeeping.
		return nil, fmt.Errorf("fanout: cannot fan out an already-sharded job (shard %s)", cfg.Shard)
	}

	per := f.shardsPerWorker
	if per <= 0 {
		per = defaultShardsPerWorker
	}
	count := min(per*len(f.Workers), cfg.Scenarios)
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &fanoutJob{
		f:        f,
		cfg:      cfg,
		sink:     opts.Sink,
		count:    count,
		cancel:   cancel,
		obs:      newFanoutObs(ctx),
		merged:   make(map[int]bench.Record, cfg.Scenarios),
		attempts: make(map[int]int),
		last:     make(map[int]string),
		inflight: make(map[int]bool),
	}
	done := make(map[int]bench.Record, len(opts.Resume))
	for _, rec := range opts.Resume {
		done[rec.ID] = rec
		r.merged[rec.ID] = rec
	}
	for idx := 0; idx < count; idx++ {
		if shardComplete(bench.ShardSpec{Index: idx, Count: count}, cfg.Scenarios, done) {
			f.logf("fanout: shard %d/%d already complete (resumed)", idx, count)
			continue
		}
		r.pending = append(r.pending, idx)
	}

	if len(r.pending) > 0 {
		var wg sync.WaitGroup
		for _, worker := range f.Workers {
			wg.Add(1)
			go func(worker string) {
				defer wg.Done()
				r.workerLoop(sctx, worker)
			}(worker)
		}
		wg.Wait()
	}

	if ctx.Err() != nil {
		// The caller's cancellation (drain, deadline) wins over whatever the
		// shards reported while dying.
		return &bench.Pool{Config: cfg, Records: sortedRecords(r.merged), Interrupted: true}, nil
	}
	r.mu.Lock()
	permErr, lastErr, mergedN := r.permErr, r.lastErr, len(r.merged)
	r.mu.Unlock()
	if permErr != nil {
		return nil, permErr
	}
	if mergedN != cfg.Scenarios {
		// Every worker loop exited (retired or exhausted) with work left:
		// transient, so the server-level retry re-probes the fleet and
		// resumes from the coordinator checkpoint.
		if lastErr == nil {
			lastErr = errors.New("all workers retired")
		}
		return nil, &workerUnavailableError{worker: "fleet",
			err: fmt.Errorf("merged %d/%d records: %w", mergedN, cfg.Scenarios, lastErr)}
	}
	return &bench.Pool{Config: cfg, Records: sortedRecords(r.merged)}, nil
}

// fanoutJob is the mutable state of one BuildPool call: the micro-shard
// queue, the merge map, and failure latches.
type fanoutJob struct {
	f      *Fanout
	cfg    bench.Config
	sink   bench.RecordSink
	count  int // micro-shard count
	cancel context.CancelFunc
	obs    fanoutObs

	mu       sync.Mutex
	merged   map[int]bench.Record
	pending  []int          // shard indexes awaiting a worker; retries at the front
	attempts map[int]int    // per-shard failed attempts
	last     map[int]string // worker that last failed each shard
	inflight map[int]bool
	permErr  error // first permanent failure; fails the whole job
	lastErr  error // latest transient failure, reported if the job stalls
	notify   chan struct{}
}

// notifyLocked wakes every wait()er. Callers hold r.mu.
func (r *fanoutJob) notifyLocked() {
	if r.notify != nil {
		close(r.notify)
		r.notify = nil
	}
}

// wait blocks until the queue state changes, a poll interval passes, or ctx
// ends.
func (r *fanoutJob) wait(ctx context.Context) {
	r.mu.Lock()
	if r.notify == nil {
		r.notify = make(chan struct{})
	}
	ch := r.notify
	r.mu.Unlock()
	t := time.NewTimer(r.f.pollInterval())
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-ctx.Done():
	}
}

// finished reports the job needs no further dispatching: failed, or every
// shard merged.
func (r *fanoutJob) finished() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.permErr != nil || (len(r.pending) == 0 && len(r.inflight) == 0)
}

// claim pops one shard, or two while the backlog exceeds the fleet size, so
// a worker pipelines (submits its next shard while the previous one
// streams) until the queue is down to a shard per worker. A shard this
// worker failed last is skipped while a shard it did not fail is pending,
// so a retry goes to a peer when one can take it. Returns nil when nothing
// is claimable.
func (r *fanoutJob) claim(worker string) []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.permErr != nil || len(r.pending) == 0 {
		return nil
	}
	take := 1
	if len(r.pending) > len(r.f.Workers) {
		take = 2
	}
	var out []int
	rest := r.pending[:0]
	for _, sh := range r.pending {
		if len(out) < take && r.last[sh] != worker {
			out = append(out, sh)
		} else {
			rest = append(rest, sh)
		}
	}
	r.pending = rest
	if len(out) == 0 {
		// Every pending shard is one this worker failed last: retrying it
		// here beats stalling the job until a peer turns up.
		out, r.pending = []int{r.pending[0]}, r.pending[1:]
	}
	for _, sh := range out {
		r.inflight[sh] = true
	}
	r.obs.dispatched.Add(int64(len(out)))
	return out
}

// deliver merges one streamed record (deduplicated by scenario ID — a
// requeued shard re-streams records an earlier attempt already delivered)
// and appends it to the sink immediately, mid-shard.
func (r *fanoutJob) deliver(rec bench.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.merged[rec.ID]; ok {
		return
	}
	r.merged[rec.ID] = rec
	if r.sink != nil {
		// Latched in the sink like a local build: a checkpoint failure
		// surfaces at Close, not here.
		rec := rec
		_ = r.sink.Append(&rec)
	}
	r.obs.streamed.Inc()
}

// finish marks a shard merged.
func (r *fanoutJob) finish(idx int, worker string, n int, elapsed time.Duration) {
	r.mu.Lock()
	delete(r.inflight, idx)
	r.notifyLocked()
	r.mu.Unlock()
	r.obs.completed.Inc()
	r.f.logf("fanout: shard %d/%d complete on %s (%d records, %.1f rec/s)",
		idx, r.count, worker, n, float64(n)/elapsed.Seconds())
}

// fail records a shard attempt's failure: permanent errors latch and cancel
// the job; transient ones requeue the shard at the front (recording the
// failing worker for the retry rotation) until its attempts are exhausted.
func (r *fanoutJob) fail(idx int, worker string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.inflight, idx)
	defer r.notifyLocked()
	if !core.IsTransient(err) {
		if r.permErr == nil {
			r.permErr = err
		}
		r.cancel() // no point finishing sibling shards this attempt
		return
	}
	r.lastErr = err
	r.attempts[idx]++
	r.last[idx] = worker
	if r.attempts[idx] >= r.f.Retry.Attempts() {
		// Out of per-shard attempts: stop this build; the error is transient,
		// so the server-level retry gets a fresh set.
		r.cancel()
		return
	}
	r.pending = append([]int{idx}, r.pending...)
	r.obs.requeued.Inc()
}

// workerLoop pulls shards for one worker until the job finishes, the worker
// proves dead (pollFailLimit consecutive failed health probes), or the
// context ends. A failed batch backs the worker off under the retry policy
// so a flapping worker cannot spin the queue.
func (r *fanoutJob) workerLoop(ctx context.Context, worker string) {
	probeFails, backoff := 0, 0
	for ctx.Err() == nil {
		if r.finished() {
			return
		}
		if !r.f.probeHealthy(ctx, worker) {
			probeFails++
			r.obs.probeFails.Inc()
			if probeFails >= pollFailLimit {
				r.f.logf("fanout: worker %s failed %d consecutive health probes; retiring for this attempt", worker, probeFails)
				return
			}
			r.wait(ctx)
			continue
		}
		probeFails = 0
		shards := r.claim(worker)
		if len(shards) == 0 {
			if r.finished() {
				return
			}
			r.wait(ctx)
			continue
		}
		var failed atomic.Bool
		var wg sync.WaitGroup
		for _, idx := range shards {
			wg.Add(1)
			go func(idx int) {
				defer wg.Done()
				if !r.runShard(ctx, worker, idx) {
					failed.Store(true)
				}
			}(idx)
		}
		wg.Wait()
		if failed.Load() {
			backoff++
			if err := r.f.Retry.Wait(ctx, backoff); err != nil {
				return
			}
		} else {
			backoff = 0
		}
	}
}

// runShard executes one micro-shard attempt on one worker, reporting success.
func (r *fanoutJob) runShard(ctx context.Context, worker string, idx int) bool {
	shard := bench.ShardSpec{Index: idx, Count: r.count}
	start := time.Now()
	n, err := r.runShardOn(ctx, worker, shard)
	if err != nil {
		if ctx.Err() != nil {
			r.mu.Lock()
			delete(r.inflight, idx)
			r.notifyLocked()
			r.mu.Unlock()
			return false
		}
		r.f.logf("fanout: shard %s on %s: %v", shard, worker, err)
		r.fail(idx, worker, err)
		return false
	}
	r.finish(idx, worker, n, time.Since(start))
	return true
}

// runShardOn submits the shard to one worker and tails its followed
// checkpoint stream, delivering records mid-shard. A broken stream
// re-attaches one past the last delivered scenario ID; pollFailLimit
// consecutive attaches that deliver no record make the worker unavailable.
func (r *fanoutJob) runShardOn(ctx context.Context, worker string, shard bench.ShardSpec) (int, error) {
	st, err := r.f.submit(ctx, worker, shardJobSpec(r.cfg, shard))
	if err != nil {
		return 0, err
	}
	r.f.logf("fanout: shard %s → %s %s", shard, worker, st.ID)
	n, next, empty := 0, 0, 0
	for {
		got, after, state, err := r.tailShard(ctx, worker, st.ID, shard, next)
		n, next = n+got, after
		if err == nil {
			st.State = state
			break
		}
		if ctx.Err() != nil {
			return 0, ctx.Err()
		}
		if !core.IsTransient(err) {
			return 0, err
		}
		cause := errors.Unwrap(err) // the attach's failure, without the worker wrapper
		if got > 0 {
			empty = 0
		} else {
			empty++
			if empty >= pollFailLimit {
				return 0, &workerUnavailableError{worker: worker,
					err: fmt.Errorf("%d consecutive follow attaches delivered no record, last: %w", empty, cause)}
			}
			// Pace empty attaches one poll interval apart, so a worker
			// restarting its listener has pollFailLimit intervals to return.
			select {
			case <-time.After(r.f.pollInterval()):
			case <-ctx.Done():
				return 0, ctx.Err()
			}
		}
		r.obs.reattached.Inc()
		r.f.logf("fanout: shard %s stream on %s broke (%v); re-attaching at scenario %d", shard, worker, cause, next)
	}
	if st.State == StateDone {
		if want := shard.Size(r.cfg.Scenarios); n != want {
			return 0, &workerUnavailableError{worker: worker, err: fmt.Errorf("followed stream delivered %d/%d records", n, want)}
		}
		return n, nil
	}
	// Terminal but not done: resolve the typed reason through the status
	// endpoint so a permanent failure carries the worker's category.
	if st2, err := r.f.status(ctx, worker, st.ID); err == nil {
		st = st2
	}
	return 0, shardStateError(worker, st)
}

// shardStateError maps the state a worker job's stream ended in onto the
// shard's failure semantics: drained, or still queued when the worker
// drained, is transient (the work recomputes elsewhere), failed is
// permanent with the worker's typed reason.
func shardStateError(worker string, st Status) error {
	switch st.State {
	case StateDone:
		return nil
	case StateDrained, StateQueued:
		// The worker shut down mid-shard or before it ran the shard. Its
		// checkpoint survives on its disk, but the cheapest cure is
		// recomputation elsewhere — determinism makes the replacement
		// records identical.
		return &workerUnavailableError{worker: worker, err: fmt.Errorf("job %s %s", st.ID, st.State)}
	case StateFailed:
		return fmt.Errorf("fanout: shard job %s failed on %s (%s): %s", st.ID, worker, st.FailureCategory, st.Error)
	default:
		return fmt.Errorf("fanout: shard job %s on %s ended in unexpected state %s", st.ID, worker, st.State)
	}
}

// maxStreamLine bounds one NDJSON line of a followed checkpoint stream; a
// record is a few KB, so this is pure safety margin.
const maxStreamLine = 16 << 20

// tailShard makes one attach to a worker job's live checkpoint stream,
// starting at scenario from, and delivers each record as it arrives. It
// returns how many records it delivered, the cursor one past the last of
// them, and the job state from the stream trailer. A broken stream — a
// transport or framing error, no trailer, or a read idle for several
// keepalive beats (the watchdog, so a wedged connection cannot hang the
// shard) — is transient: the caller re-attaches at next. A stream that
// does not match the shard (readShardStream) is permanent.
func (r *fanoutJob) tailShard(ctx context.Context, worker, id string, shard bench.ShardSpec, from int) (n, next int, state State, err error) {
	broken := func(err error) error {
		return &workerUnavailableError{worker: worker, err: fmt.Errorf("follow checkpoint %s: %w", id, err)}
	}
	tctx, cancel := context.WithCancel(ctx)
	defer cancel()
	url := fmt.Sprintf("%s/jobs/%s/checkpoint?follow=1&from=%d", worker, id, from)
	req, err := http.NewRequestWithContext(tctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, from, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, from, "", broken(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, from, "", broken(fmt.Errorf("%d: %s", resp.StatusCode, readError(resp.Body)))
	}
	idle := max(5*checkpointKeepalive, 5*r.f.pollInterval())
	watchdog := time.AfterFunc(idle, cancel)
	defer watchdog.Stop()

	want := r.cfg
	want.Shard = shard
	n, next, err = readShardStream(resp.Body, want, from, func() { watchdog.Reset(idle) }, r.deliver)
	if errors.Is(err, errStreamMismatch) {
		return n, next, "", fmt.Errorf("fanout: worker %s: %w", worker, err)
	}
	if err != nil {
		return n, next, "", broken(err)
	}
	state = State(resp.Trailer.Get(trailerJobState))
	if state == "" {
		return n, next, "", broken(errors.New("stream ended without a state trailer"))
	}
	return n, next, state, nil
}

// errStreamMismatch marks a followed checkpoint stream that is not the
// shard's: retrying it elsewhere cannot help, so the job fails.
var errStreamMismatch = errors.New("stream does not match its shard")

// readShardStream reads the body of one followed checkpoint attach: a
// header line, then record lines from scenario cursor from on, with blank
// keepalive lines between. It calls beat after every line it reads and
// deliver with every record, and returns how many records it delivered
// and the cursor one past the last. A header for a pool other than want
// (any bench.IdentityMismatch, the shard compared), or a record outside
// want's shard or behind the cursor, is an errStreamMismatch. Any other
// fault — no header, a line that does not decode, a read error — leaves
// the shard intact: the caller re-attaches at next.
func readShardStream(body io.Reader, want bench.Config, from int, beat func(), deliver func(bench.Record)) (n, next int, err error) {
	next = from
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	if !sc.Scan() {
		return 0, next, fmt.Errorf("no header line: %v", sc.Err())
	}
	beat()
	hcfg, err := bench.DecodeCheckpointHeader(sc.Bytes())
	if err != nil {
		return 0, next, err
	}
	if err := bench.IdentityMismatch(hcfg, want, true); err != nil {
		return 0, next, fmt.Errorf("%w: a checkpoint for a different pool (%v)", errStreamMismatch, err)
	}
	for sc.Scan() {
		beat()
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue // keepalive heartbeat
		}
		var rec bench.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return n, next, fmt.Errorf("bad record line: %w", err)
		}
		if rec.ID >= want.Scenarios || !want.Shard.Contains(rec.ID) {
			return n, next, fmt.Errorf("%w: scenario %d outside shard %s", errStreamMismatch, rec.ID, want.Shard)
		}
		if rec.ID < next {
			return n, next, fmt.Errorf("%w: scenario %d behind cursor %d", errStreamMismatch, rec.ID, next)
		}
		deliver(rec)
		n, next = n+1, rec.ID+1
	}
	return n, next, sc.Err()
}

// probeHealthy reports whether the worker answers /healthz as serving (a
// draining worker is deliberately unhealthy: it rejects new shard jobs).
func (f *Fanout) probeHealthy(ctx context.Context, worker string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false
	}
	var hb struct {
		State string `json:"state"`
	}
	if json.NewDecoder(resp.Body).Decode(&hb) != nil {
		return false
	}
	return hb.State == "serving"
}

// shardComplete reports every scenario of the shard already has a record.
func shardComplete(shard bench.ShardSpec, scenarios int, done map[int]bench.Record) bool {
	for i := 0; i < scenarios; i++ {
		if shard.Contains(i) {
			if _, ok := done[i]; !ok {
				return false
			}
		}
	}
	return true
}

func sortedRecords(byID map[int]bench.Record) []bench.Record {
	out := make([]bench.Record, 0, len(byID))
	for _, rec := range byID {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// shardJobSpec maps the coordinator's bench config back onto the wire spec a
// worker accepts, restricted to one shard. The mapping must round-trip
// through the worker's own benchConfig to the same record-identity fields
// (Workers/Label are excluded from identity, so the worker's local
// parallelism and labeling are free).
func shardJobSpec(cfg bench.Config, shard bench.ShardSpec) JobSpec {
	return JobSpec{
		Scenarios:  cfg.Scenarios,
		Seed:       cfg.Seed,
		HPO:        cfg.HPO,
		Utility:    cfg.Mode == core.ModeMaximizeUtility,
		MaxEvals:   cfg.MaxEvals,
		Datasets:   cfg.Datasets,
		ShardIndex: shard.Index,
		ShardCount: shard.Count,
	}
}

// submit POSTs the shard job. 429/503 (and transport failures) are
// transient; 400 is permanent.
func (f *Fanout) submit(ctx context.Context, worker string, spec JobSpec) (Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Status{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/jobs", strings.NewReader(string(body)))
	if err != nil {
		return Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := controlClient.Do(req)
	if err != nil {
		return Status{}, &workerUnavailableError{worker: worker, err: err}
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return Status{}, &workerUnavailableError{worker: worker, err: fmt.Errorf("bad submit response: %w", err)}
		}
		return st, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return Status{}, &workerUnavailableError{worker: worker, err: fmt.Errorf("submit rejected: %s", readError(resp.Body))}
	default:
		return Status{}, fmt.Errorf("fanout: worker %s rejected shard job (%d): %s", worker, resp.StatusCode, readError(resp.Body))
	}
}

// pollFailLimit is how many consecutive failed health probes, or follow
// attaches that deliver no record, declare a worker dead — a SIGKILLed
// worker stops answering without any terminal state.
const pollFailLimit = 5

func (f *Fanout) status(ctx context.Context, worker, id string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, worker+"/jobs/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, fmt.Errorf("status %s: %d: %s", id, resp.StatusCode, readError(resp.Body))
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// readError extracts the error string from a JSON rejection body (falling
// back to the raw bytes).
func readError(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var eb errorBody
	if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(data))
}

// fanoutObs holds the coordinator-side scheduling counters, registered on
// the server's runtime via the build context. Without a runtime every
// handle is nil, and a nil *obs.Counter ignores Inc and Add.
type fanoutObs struct {
	dispatched *obs.Counter // serve.fanout.shards_dispatched
	completed  *obs.Counter // serve.fanout.shards_completed
	requeued   *obs.Counter // serve.fanout.shards_requeued
	streamed   *obs.Counter // serve.fanout.records_streamed
	reattached *obs.Counter // serve.fanout.stream_fallbacks: follow re-attaches
	probeFails *obs.Counter // serve.fanout.probe_failures
}

func newFanoutObs(ctx context.Context) fanoutObs {
	m := obs.FromContext(ctx).Metrics()
	return fanoutObs{
		dispatched: m.Counter("serve.fanout.shards_dispatched"),
		completed:  m.Counter("serve.fanout.shards_completed"),
		requeued:   m.Counter("serve.fanout.shards_requeued"),
		streamed:   m.Counter("serve.fanout.records_streamed"),
		reattached: m.Counter("serve.fanout.stream_fallbacks"),
		probeFails: m.Counter("serve.fanout.probe_failures"),
	}
}
