// Package serve is the long-running selection service of the DFS system:
// an HTTP/JSON daemon (cmd/dfsd) that accepts scenario-selection jobs,
// executes them on a bounded worker pool against the benchmark harness, and
// survives overload and termination without losing or corrupting work.
//
// The robustness contract, in order of the request lifecycle:
//
//   - Admission control: the job queue is bounded. A full queue rejects
//     with 429 + Retry-After instead of blocking the accept loop; a tenant
//     whose simulated-cost budget is spent is rejected the same way.
//   - Deadlines: every job runs under a wall-clock deadline enforced
//     through the same context cancellation that stops strategy runs at
//     their next budget charge.
//   - Typed failure: worker panics are isolated into the core.StrategyError
//     taxonomy and surfaced in the job status; transient failures are
//     retried under a deterministic core.RetryPolicy with capped,
//     seeded-jitter backoff.
//   - Graceful drain: SIGTERM stops admission, cancels in-flight jobs so
//     their completed scenarios are already checkpointed (bench's
//     append-only fsync'd JSONL), persists every job's lifecycle state, and
//     exits cleanly. A restarted daemon re-adopts the directory and resumes
//     drained jobs bit-identically to uninterrupted runs.
//
// Every transition is counted under serve.queue.* / serve.job.* metrics
// with the invariant admitted + resumed == done + failed + drained +
// queued + running, cross-checked by tests.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
)

// PoolBuilder is the execution hook of the service: it runs one job's pool
// build. The default is bench.BuildPoolResumed; tests swap in fault-scripted
// builders (see internal/faultinject).
type PoolBuilder func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error)

// Config is the operator-side configuration of a Server.
type Config struct {
	// Dir is the job directory: one JSON lifecycle file plus one JSONL
	// checkpoint per job. Required; created if absent.
	Dir string
	// QueueCap bounds the number of queued (admitted, not yet running)
	// jobs; a full queue rejects with 429. 0 means 16.
	QueueCap int
	// Workers is the number of concurrent job executions. 0 means 2.
	Workers int
	// PoolWorkers is the scenario/strategy parallelism inside each job's
	// pool build (bench.Config.Workers); 0 means GOMAXPROCS.
	PoolWorkers int
	// MaxScenarios caps JobSpec.Scenarios at admission; 0 means 1000.
	MaxScenarios int
	// DefaultDeadline is the per-job wall deadline when the spec declares
	// none; 0 means no deadline.
	DefaultDeadline time.Duration
	// TenantBudgets maps tenant name to its simulated-cost budget in cost
	// units; a tenant not listed gets DefaultTenantBudget.
	TenantBudgets map[string]float64
	// DefaultTenantBudget is the budget for unlisted tenants; 0 means
	// unlimited.
	DefaultTenantBudget float64
	// Retry is the job-level transient-retry schedule; the zero value means
	// core.DefaultTransientRetries immediate retries.
	Retry core.RetryPolicy
	// EvalStore is the directory of the durable content-addressed evaluation
	// store shared by every job, attempt, and daemon restart: identical
	// scenarios replay stored trainings instead of recomputing them. Empty
	// disables the store.
	EvalStore string
	// JobTTL evicts terminal (done/failed) jobs — lifecycle file and
	// checkpoint — once their job file is older than this. 0 disables
	// age-based eviction.
	JobTTL time.Duration
	// MaxTerminalJobs caps the number of retained terminal jobs, evicting the
	// oldest beyond it. 0 disables count-based eviction.
	MaxTerminalJobs int
	// GCInterval is the period of the eviction sweep when JobTTL or
	// MaxTerminalJobs is set; 0 means 1 minute. A sweep also runs at startup,
	// after re-adoption.
	GCInterval time.Duration
	// BuildPool overrides the pool execution (tests); nil means
	// bench.BuildPoolResumed.
	BuildPool PoolBuilder
	// Obs is the observability runtime backing /metrics; nil creates a
	// private one whose tracer emits to TraceBroadcast, so SSE event
	// streaming works out of the box.
	Obs *obs.Runtime
	// TraceBroadcast is the in-process fan-out of the span stream backing
	// GET /jobs/{id}/events. Nil creates a private one. A caller that builds
	// its own tracer (cmd/dfsd with -trace) must tee the tracer into this
	// sink (obs.MultiSink) or the SSE bridge only sees synthesized progress
	// events, never spans. The server closes it at the end of Drain.
	TraceBroadcast *obs.BroadcastSink
	// Logf receives operational log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.MaxScenarios <= 0 {
		c.MaxScenarios = 1000
	}
	if c.BuildPool == nil {
		c.BuildPool = bench.BuildPoolResumed
	}
	if c.GCInterval <= 0 {
		c.GCInterval = time.Minute
	}
	if c.TraceBroadcast == nil {
		c.TraceBroadcast = obs.NewBroadcastSink(0)
	}
	if c.Obs == nil {
		c.Obs = obs.New(obs.WithTracer(obs.NewTracer(c.TraceBroadcast)))
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// tenantAccount tracks one tenant's simulated-cost spend (guarded by
// Server.mu).
type tenantAccount struct {
	limit float64 // 0 = unlimited
	spent float64
}

// Server is the selection service. Construct with New, expose with Start
// (or mount Handler on your own listener), and shut down with Drain.
type Server struct {
	cfg     Config
	rt      *obs.Runtime
	baseCtx context.Context
	cancel  context.CancelFunc

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string // submission/scan order, for GET /jobs
	tenants map[string]*tenantAccount
	nextID  int
	queued  int // admission-side queue occupancy (<= cfg.QueueCap)

	queue    chan *Job
	wg       sync.WaitGroup // worker goroutines
	draining atomic.Bool
	drained  chan struct{} // closed when Drain completes

	lis     net.Listener
	httpSrv *http.Server

	// store is the durable evaluation store shared by every job (nil when
	// Config.EvalStore is empty); closed at the end of Drain.
	store *evalstore.Store

	// bcast fans the span stream out to SSE subscribers (always non-nil
	// after New; see Config.TraceBroadcast). Closed at the end of Drain so
	// event streams terminate cleanly.
	bcast *obs.BroadcastSink

	// queuedAt holds the admission time of every still-queued job (guarded
	// by mu); the scrape-time serve.queue.oldest_age_seconds gauge reads it.
	queuedAt map[string]time.Time

	// counters; see package doc for the invariant they satisfy.
	mAdmitted, mRejected            *obs.Counter
	mRejFull, mRejBudget            *obs.Counter
	mRejDraining, mRejInvalid       *obs.Counter
	mResumed, mRetried              *obs.Counter
	mDone, mFailed, mDrained        *obs.Counter
	mEvicted                        *obs.Counter
	gQueueDepth, gRunning, gTenants *obs.Gauge
	gOldestAge                      *obs.Gauge
	// SLO latency histograms: time queued, time executing, admission→end.
	hQueueWait, hRun, hE2E *obs.Histogram
}

// errDraining marks rejections caused by a shutdown in progress.
var errDraining = errors.New("serve: draining")

// New builds a Server over cfg.Dir, re-adopting every persisted job: done
// and failed jobs are reloaded as terminal records (done jobs recover their
// result from the checkpoint), everything else — queued, running at crash
// time, drained — is re-enqueued for resumed execution. Workers start
// immediately.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("serve: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	rt := cfg.Obs
	ctx, cancel := context.WithCancel(obs.NewContext(context.Background(), rt))
	m := rt.Metrics()
	s := &Server{
		cfg:      cfg,
		rt:       rt,
		bcast:    cfg.TraceBroadcast,
		baseCtx:  ctx,
		cancel:   cancel,
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]*tenantAccount),
		drained:  make(chan struct{}),
		queuedAt: make(map[string]time.Time),

		mAdmitted:    m.Counter("serve.queue.admitted"),
		mRejected:    m.Counter("serve.queue.rejected"),
		mRejFull:     m.Counter("serve.queue.rejected.full"),
		mRejBudget:   m.Counter("serve.queue.rejected.budget"),
		mRejDraining: m.Counter("serve.queue.rejected.draining"),
		mRejInvalid:  m.Counter("serve.queue.rejected.invalid"),
		mResumed:     m.Counter("serve.job.resumed"),
		mRetried:     m.Counter("serve.job.retried"),
		mDone:        m.Counter("serve.job.done"),
		mFailed:      m.Counter("serve.job.failed"),
		mDrained:     m.Counter("serve.job.drained"),
		mEvicted:     m.Counter("serve.job.evicted"),
		gQueueDepth:  m.Gauge("serve.queue.depth"),
		gRunning:     m.Gauge("serve.jobs.running"),
		gTenants:     m.Gauge("serve.tenants"),
		gOldestAge:   m.Gauge("serve.queue.oldest_age_seconds"),
		hQueueWait:   m.Histogram("serve.job.queue_wait_seconds"),
		hRun:         m.Histogram("serve.job.run_seconds"),
		hE2E:         m.Histogram("serve.job.e2e_seconds"),
	}
	if cfg.EvalStore != "" {
		st, err := evalstore.Open(cfg.EvalStore, evalstore.Options{Metrics: m})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("serve: eval store: %w", err)
		}
		s.store = st
	}
	resumable, err := s.scanDir()
	if err != nil {
		cancel()
		s.closeStore()
		return nil, err
	}
	// Evict stale terminal jobs before re-adoption finishes, so a daemon
	// restarted into a crowded directory starts within its retention policy.
	s.gcTerminal(time.Now())
	// The channel needs headroom for every re-adopted job on top of the
	// admission bound, so startup enqueues never block.
	s.queue = make(chan *Job, cfg.QueueCap+len(resumable))
	for _, job := range resumable {
		job.resumed = true
		job.setState(StateQueued)
		if err := job.persist(cfg.Dir); err != nil {
			cancel()
			return nil, err
		}
		s.startJobSpan(job, true)
		s.enqueueLocked(job)
		s.mResumed.Inc()
		s.cfg.Logf("serve: resuming job %s (%d scenarios)", job.ID, job.Spec.Scenarios)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.JobTTL > 0 || cfg.MaxTerminalJobs > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// closeStore flushes and releases the durable evaluation store (no-op when
// none is configured). Failures are logged, not fatal: the store is a cache.
func (s *Server) closeStore() {
	if s.store == nil {
		return
	}
	if err := s.store.Close(); err != nil {
		s.cfg.Logf("serve: eval store close: %v", err)
	}
}

// gcLoop periodically evicts terminal jobs per the retention policy until
// the server drains.
func (s *Server) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-t.C:
			s.gcTerminal(now)
		}
	}
}

// gcTerminal evicts terminal (done/failed) jobs — memory entry, lifecycle
// file, and checkpoint — oldest first: every terminal job whose lifecycle
// file is older than JobTTL, then the oldest beyond MaxTerminalJobs.
// Queued, running, and drained jobs are never touched; tenant spend already
// charged is kept (eviction reclaims disk, not budget). Returns the number
// of jobs evicted.
func (s *Server) gcTerminal(now time.Time) int {
	ttl, keep := s.cfg.JobTTL, s.cfg.MaxTerminalJobs
	if ttl <= 0 && keep <= 0 {
		return 0
	}
	s.mu.Lock()
	var terminal []string // submission order: oldest first
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && j.State().terminal() {
			terminal = append(terminal, id)
		}
	}
	evict := make(map[string]bool)
	if ttl > 0 {
		for _, id := range terminal {
			fi, err := os.Stat(filepath.Join(s.cfg.Dir, id+jobFileSuffix))
			// An unstattable lifecycle file can't outlive its TTL; count-based
			// eviction below still covers it.
			if err == nil && now.Sub(fi.ModTime()) > ttl {
				evict[id] = true
			}
		}
	}
	if keep > 0 {
		for i := 0; i+keep < len(terminal); i++ {
			evict[terminal[i]] = true
		}
	}
	for id := range evict {
		delete(s.jobs, id)
	}
	if len(evict) > 0 {
		kept := s.order[:0]
		for _, id := range s.order {
			if !evict[id] {
				kept = append(kept, id)
			}
		}
		s.order = kept
	}
	s.mu.Unlock()
	for id := range evict {
		for _, path := range []string{filepath.Join(s.cfg.Dir, id+jobFileSuffix), s.ckptPath(id)} {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				s.cfg.Logf("serve: gc %s: %v", id, err)
			}
		}
		s.mEvicted.Inc()
		s.cfg.Logf("serve: job %s evicted", id)
	}
	return len(evict)
}

// scanDir loads every persisted job, rebuilding terminal results and
// returning the jobs that need (re-)execution in ID order.
func (s *Server) scanDir() ([]*Job, error) {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return nil, err
	}
	var resumable []*Job
	var names []string
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), jobFileSuffix) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		job, err := loadJob(filepath.Join(s.cfg.Dir, name))
		if err != nil {
			return nil, err
		}
		if n := idNumber(job.ID); n >= s.nextID {
			s.nextID = n + 1
		}
		s.jobs[job.ID] = job
		s.order = append(s.order, job.ID)
		switch {
		case job.state == StateDone:
			// Recover the result from the checkpoint; the records took the
			// same JSON round trip a live resume takes, so the pool is
			// bit-identical to the one the original process held.
			cfg, records, err := bench.ReadCheckpoint(s.ckptPath(job.ID))
			if err != nil {
				return nil, fmt.Errorf("serve: job %s is done but its checkpoint is unreadable: %w", job.ID, err)
			}
			// A shard job's checkpoint holds its shard's slice of the pool,
			// not every scenario; completeness is measured against the shard.
			if want := cfg.Shard.Size(cfg.Scenarios); len(records) != want {
				return nil, fmt.Errorf("serve: job %s is done but its checkpoint has %d/%d records", job.ID, len(records), want)
			}
			job.pool = &bench.Pool{Config: cfg, Records: records}
			job.adoptPoolLocked(job.pool)
			s.chargeTenant(job.Tenant, job.cost)
		case job.state == StateFailed:
			// Terminal; keep for status queries.
		default:
			resumable = append(resumable, job)
		}
	}
	return resumable, nil
}

// idNumber extracts the numeric part of a job ID (-1 if foreign).
func idNumber(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "job-%d", &n); err != nil {
		return -1
	}
	return n
}

func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.Dir, id+ckptFileSuffix)
}

// enqueueLocked registers the job as queued. Callers hold no lock during
// New (single-goroutine) but Submit calls it under s.mu; the channel send
// never blocks because capacity covers the admission bound plus re-adopted
// jobs.
func (s *Server) enqueueLocked(job *Job) {
	s.queued++
	s.queuedAt[job.ID] = job.admittedAt
	s.gQueueDepth.Add(1)
	s.queue <- job
}

// startJobSpan opens the job's trace span at admission time. The span is
// the job's trace identity: runJob parents the pool → scenario →
// strategy_run tree under it, so every admitted job is exactly one span
// tree in the trace. Without a tracer the span is 0 and every downstream
// call is a no-op.
func (s *Server) startJobSpan(job *Job, resumed bool) {
	job.admittedAt = time.Now()
	job.span = s.rt.Tracer().StartSpan(0, "job",
		obs.Str("job", job.ID),
		obs.Str("tenant", job.Tenant),
		obs.Int("scenarios", int64(job.Spec.Scenarios)),
		obs.Bool("resumed", resumed),
	)
	job.spanOpen = job.span != 0
}

// endJobSpan closes the job's span with a terminal status and records the
// SLO latency histograms. Jobs that never reached a worker (a drain closing
// still-queued spans) skip the histograms: they measured nothing.
func (s *Server) endJobSpan(job *Job, status string, extra ...obs.Attr) {
	now := time.Now()
	if !job.dequeuedAt.IsZero() {
		s.hRun.Observe(now.Sub(job.dequeuedAt).Seconds())
		s.hE2E.Observe(now.Sub(job.admittedAt).Seconds())
	}
	if !job.spanOpen {
		return
	}
	job.spanOpen = false
	attrs := make([]obs.Attr, 0, len(extra)+1)
	attrs = append(attrs, obs.Str("status", status))
	attrs = append(attrs, extra...)
	s.rt.Tracer().EndSpan(job.span, attrs...)
}

// syncScrapeGauges refreshes gauges that are point-in-time reads rather
// than increment streams — the age of the oldest queued job and the eval
// store's index/segment sizes — so the admission and execution hot paths
// never touch them. Called from GET /metrics and /healthz.
func (s *Server) syncScrapeGauges(now time.Time) {
	var oldest time.Duration
	s.mu.Lock()
	for _, t0 := range s.queuedAt {
		if age := now.Sub(t0); age > oldest {
			oldest = age
		}
	}
	s.mu.Unlock()
	s.gOldestAge.Set(int64(oldest.Seconds()))
	if s.store != nil {
		s.store.SyncGauges()
	}
}

// RejectReason says why an admission was refused.
type RejectReason string

const (
	// RejectNone: the job was admitted.
	RejectNone RejectReason = ""
	// RejectInvalid: the spec failed validation.
	RejectInvalid RejectReason = "invalid"
	// RejectQueueFull: the bounded queue is at capacity; retry later.
	RejectQueueFull RejectReason = "queue-full"
	// RejectBudget: the tenant's simulated-cost budget is exhausted.
	RejectBudget RejectReason = "tenant-budget-exhausted"
	// RejectDraining: the server is shutting down.
	RejectDraining RejectReason = "draining"
)

// Submit admits a job or rejects it with a typed reason. It never blocks on
// queue capacity: a full queue is an immediate RejectQueueFull.
func (s *Server) Submit(spec JobSpec) (*Job, RejectReason, error) {
	if s.draining.Load() {
		s.mRejected.Inc()
		s.mRejDraining.Inc()
		return nil, RejectDraining, errDraining
	}
	if err := spec.validate(s.cfg.MaxScenarios); err != nil {
		s.mRejected.Inc()
		s.mRejInvalid.Inc()
		return nil, RejectInvalid, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	acct := s.tenantLocked(spec.Tenant)
	if acct.limit > 0 && acct.spent >= acct.limit {
		s.mRejected.Inc()
		s.mRejBudget.Inc()
		return nil, RejectBudget, fmt.Errorf("serve: tenant %q budget exhausted (%.0f/%.0f cost units)",
			spec.Tenant, acct.spent, acct.limit)
	}
	if s.queued >= s.cfg.QueueCap {
		s.mRejected.Inc()
		s.mRejFull.Inc()
		return nil, RejectQueueFull, fmt.Errorf("serve: job queue full (%d queued)", s.queued)
	}
	job := &Job{
		ID:     fmt.Sprintf("job-%06d", s.nextID),
		Tenant: spec.Tenant,
		Spec:   spec,
		state:  StateQueued,
	}
	s.nextID++
	if err := job.persist(s.cfg.Dir); err != nil {
		// Without a durable lifecycle file the job could not survive a
		// restart; refuse rather than admit unreliably.
		s.mRejected.Inc()
		s.mRejInvalid.Inc()
		return nil, RejectInvalid, fmt.Errorf("serve: persist job: %w", err)
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.mAdmitted.Inc()
	s.startJobSpan(job, false)
	s.enqueueLocked(job)
	return job, RejectNone, nil
}

// tenantLocked returns (creating on first sight) the tenant's account.
func (s *Server) tenantLocked(name string) *tenantAccount {
	acct, ok := s.tenants[name]
	if !ok {
		limit, listed := s.cfg.TenantBudgets[name]
		if !listed {
			limit = s.cfg.DefaultTenantBudget
		}
		acct = &tenantAccount{limit: limit}
		s.tenants[name] = acct
		s.gTenants.Add(1)
	}
	return acct
}

func (s *Server) chargeTenant(name string, cost float64) {
	s.mu.Lock()
	s.tenantLocked(name).spent += cost
	s.mu.Unlock()
}

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists every known job in submission order.
func (s *Server) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// worker executes queued jobs until the server drains or closes. Jobs
// dequeued after cancellation are left in their persisted queued state for
// the next process to resume.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case job := <-s.queue:
			if s.baseCtx.Err() != nil {
				return
			}
			s.mu.Lock()
			s.queued--
			delete(s.queuedAt, job.ID)
			s.mu.Unlock()
			s.gQueueDepth.Add(-1)
			s.runJob(job)
		}
	}
}

// runJob drives one job through the lifecycle: running, then exactly one of
// done / failed / drained. Failures are typed via core.Classify; panics in
// the build are isolated into the StrategyError taxonomy rather than
// killing the worker.
func (s *Server) runJob(job *Job) {
	// Every exit below goes through a finish* method, which takes the job
	// back off serve.jobs.running as it bumps the terminal counter.
	s.gRunning.Add(1)
	job.dequeuedAt = time.Now()
	if wait := job.dequeuedAt.Sub(job.admittedAt); wait >= 0 {
		s.hQueueWait.Observe(wait.Seconds())
		s.rt.Tracer().Event(job.span, "dequeue", obs.Float("queue_wait_seconds", wait.Seconds()))
	}
	job.setState(StateRunning)
	s.persist(job)

	bcfg := job.Spec.benchConfig(s.cfg, job.ID)
	jctx := s.baseCtx
	if d := job.Spec.deadline(s.cfg); d > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, d)
		defer cancel()
	}
	if job.span != 0 {
		// Parent the pool's span tree under the job span, giving the trace
		// one root per admitted job.
		jctx = obs.ContextWithSpan(jctx, job.span)
	}

	attempts := s.cfg.Retry.Attempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			job.bumpRetries()
			s.mRetried.Inc()
			if err := s.cfg.Retry.Wait(jctx, attempt); err != nil {
				// Canceled mid-backoff: a drain wins over the retry loop.
				s.finishInterrupted(job, jctx, err)
				return
			}
		}
		p, err := s.buildOnce(jctx, job, bcfg)
		if err == nil && p != nil && !p.Interrupted {
			s.finishDone(job, p)
			return
		}
		if s.baseCtx.Err() != nil || jctx.Err() != nil || (p != nil && p.Interrupted) {
			s.finishInterrupted(job, jctx, err)
			return
		}
		lastErr = err
		if !core.IsTransient(err) {
			break
		}
	}
	s.finishFailed(job, lastErr)
}

// buildOnce runs one pool-build attempt against the job's checkpoint:
// resume whatever an earlier attempt (or process) completed, stream new
// records to the same file, and isolate panics into the typed taxonomy.
func (s *Server) buildOnce(ctx context.Context, job *Job, bcfg bench.Config) (p *bench.Pool, err error) {
	defer func() {
		if r := recover(); r != nil {
			p = nil
			err = &core.StrategyError{
				Strategy: "serve:" + job.ID,
				Cause:    fmt.Errorf("panic: %v", r),
				Stack:    string(debug.Stack()),
			}
		}
	}()
	w, resumed, err := bench.ResumeCheckpoint(s.ckptPath(job.ID), bcfg)
	if err != nil {
		return nil, err
	}
	// Resumed records are completed work: feed them to the live record
	// index exactly like freshly executed ones (publish dedups by ID, so a
	// retry re-reading the checkpoint replays nothing).
	for i := range resumed {
		job.publish(&resumed[i])
	}
	p, err = s.cfg.BuildPool(ctx, bcfg, bench.RunOptions{
		Resume: resumed,
		Sink:   &jobSink{inner: w, job: job},
		Store:  s.store,
	})
	if cerr := w.Close(); cerr != nil && err == nil {
		// A checkpoint flush failure means durability is gone; the job must
		// not report done on top of an unreliable file.
		err = cerr
	}
	return p, err
}

// jobSink forwards records to the checkpoint writer and publishes each to
// the job's record index, which is the job's progress on GET /jobs/{id}.
type jobSink struct {
	inner bench.RecordSink
	job   *Job
}

func (s *jobSink) Append(rec *bench.Record) error {
	err := s.inner.Append(rec)
	s.job.publish(rec)
	return err
}

func (s *Server) finishDone(job *Job, p *bench.Pool) {
	cost := poolCost(p)
	job.mu.Lock()
	job.state = StateDone
	job.pool = p
	job.cost = cost
	job.err = ""
	job.category = ""
	job.adoptPoolLocked(p)
	// Count the terminal state before publishing it: a client that just
	// observed state=done over HTTP must also see serve.job.done and
	// serve.jobs.running moved on /metrics.
	s.mDone.Inc()
	s.gRunning.Add(-1)
	job.notifyLocked()
	job.mu.Unlock()
	s.chargeTenant(job.Tenant, cost)
	s.persist(job)
	s.endJobSpan(job, "done",
		obs.Int("records", int64(len(p.Records))),
		obs.Float("cost", cost),
	)
	s.cfg.Logf("serve: job %s done (%d records, cost %.1f)", job.ID, len(p.Records), cost)
}

func (s *Server) finishFailed(job *Job, err error) {
	if err == nil {
		err = errors.New("serve: job failed without an error")
	}
	category := core.Classify(err)
	job.mu.Lock()
	job.state = StateFailed
	job.err = err.Error()
	job.category = category
	s.mFailed.Inc()
	s.gRunning.Add(-1)
	job.notifyLocked()
	job.mu.Unlock()
	s.persist(job)
	s.endJobSpan(job, "failed", obs.Str("category", string(category)))
	s.cfg.Logf("serve: job %s failed (%s): %v", job.ID, category, err)
}

// finishInterrupted types a job cut short by cancellation: a drain leaves
// it resumable (drained), a deadline expiry is a typed timeout failure.
func (s *Server) finishInterrupted(job *Job, jctx context.Context, err error) {
	if s.baseCtx.Err() != nil || s.draining.Load() {
		job.mu.Lock()
		job.state = StateDrained
		s.mDrained.Inc()
		s.gRunning.Add(-1)
		job.notifyLocked()
		job.mu.Unlock()
		s.persist(job)
		s.endJobSpan(job, "drained")
		s.cfg.Logf("serve: job %s drained (checkpoint retained)", job.ID)
		return
	}
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		if jctx.Err() != nil {
			err = jctx.Err()
		} else if err == nil {
			err = context.Canceled
		}
	}
	s.finishFailed(job, err)
}

// persist writes the job file, logging (never crashing on) failures: an
// unpersistable transition degrades restart fidelity but must not take the
// serving loop down.
func (s *Server) persist(job *Job) {
	if err := job.persist(s.cfg.Dir); err != nil {
		s.cfg.Logf("serve: persist job %s: %v", job.ID, err)
	}
}

// poolCost is the simulated cost charged to the tenant: the sum of every
// strategy run's TotalCost over every record, the same accounting the
// benchmark tables use.
func poolCost(p *bench.Pool) float64 {
	var total float64
	for i := range p.Records {
		for _, res := range p.Records[i].Results {
			total += res.TotalCost
		}
	}
	return total
}

// Start listens on addr and serves the HTTP API until Drain or Close.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = s.httpSrv.Serve(lis) }()
	return nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain shuts the server down gracefully: stop admitting (new submissions
// get 503), cancel in-flight jobs — their completed scenarios are already
// fsync'd in per-job checkpoints — wait for the workers to type every
// in-flight job as drained, and persist all lifecycle files. Queued jobs
// stay queued on disk; a restarted daemon re-enqueues both. ctx bounds the
// wait. Drain is idempotent; concurrent calls wait for the first.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		select {
		case <-s.drained:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		}
	}
	s.cfg.Logf("serve: draining (admission stopped)")
	s.cancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	// Workers are quiesced (wg.Wait above orders their span closes before
	// this sweep), so the only spans still open belong to jobs that never
	// reached a worker. Close them with their persisted state, giving every
	// admitted job exactly one complete span tree in the trace.
	s.mu.Lock()
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil && j.spanOpen {
			j.spanOpen = false
			s.rt.Tracer().EndSpan(j.span, obs.Str("status", string(j.State())))
		}
	}
	s.mu.Unlock()
	if s.httpSrv != nil {
		_ = s.httpSrv.Close()
	}
	// Workers are quiesced, so no job is writing evaluations anymore.
	s.closeStore()
	// Terminate live event streams: subscribers see a closed channel and
	// finish their responses instead of waiting on a silent span stream.
	s.bcast.Close()
	close(s.drained)
	s.cfg.Logf("serve: drained")
	return nil
}

// Close is the hard stop used by tests: like Drain but without the
// graceful framing. In-flight jobs are still typed (as drained — their
// checkpoints are intact and resumable).
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.Drain(ctx)
}
