// Command dfsd is the long-running declarative-feature-selection service: a
// fault-tolerant HTTP/JSON daemon that accepts scenario-selection jobs,
// executes them on a bounded worker pool, and drains gracefully.
//
// Usage:
//
//	dfsd -addr 127.0.0.1:8100 -data ./dfsd-data
//
// Submit a job, poll it, fetch the result:
//
//	curl -d '{"scenarios":6,"seed":3,"max_evals":15,"tenant":"alice"}' http://127.0.0.1:8100/jobs
//	curl http://127.0.0.1:8100/jobs/job-000000
//	curl http://127.0.0.1:8100/jobs/job-000000/result > pool.csv
//
// Robustness contract: a full queue answers 429 + Retry-After instead of
// blocking; SIGTERM/SIGINT stop admission, checkpoint in-flight jobs, and
// exit 0; restarting with the same -data directory resumes interrupted jobs
// bit-identically. A second signal during the drain force-exits with status
// 131.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
	"github.com/declarative-fs/dfs/internal/sigctx"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8100", "listen address for the HTTP API")
	data := flag.String("data", "dfsd-data", "job directory (lifecycle files + checkpoints); reused across restarts to resume")
	queueCap := flag.Int("queue", 16, "bounded job queue capacity; a full queue rejects with 429")
	workers := flag.Int("workers", 2, "concurrent job executions")
	poolWorkers := flag.Int("pool-workers", 0, "scenario/strategy parallelism inside each job (0 = GOMAXPROCS)")
	maxScenarios := flag.Int("max-scenarios", 1000, "admission cap on a job's scenario count")
	deadline := flag.Duration("deadline", 0, "default per-job wall deadline (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "how long a SIGTERM drain may wait for in-flight jobs to checkpoint")
	tenantBudgets := flag.String("tenant-budget", "", "per-tenant simulated-cost budgets, e.g. 'alice=50000,bob=1e6'")
	defaultBudget := flag.Float64("default-tenant-budget", 0, "budget for tenants not listed in -tenant-budget (0 = unlimited)")
	retries := flag.Int("retries", 0, "job-level transient retry attempts (0 = default policy)")
	retryBase := flag.Duration("retry-base", 250*time.Millisecond, "base backoff before the first transient retry")
	retryCap := flag.Duration("retry-cap", 5*time.Second, "backoff cap for transient retries")
	retrySeed := flag.Uint64("retry-seed", 1, "seed of the deterministic retry jitter")
	evalStore := flag.String("eval-store", "", "directory of the durable evaluation store shared across jobs and restarts (empty = disabled)")
	jobTTL := flag.Duration("job-ttl", 0, "evict terminal (done/failed) jobs older than this (0 = keep forever)")
	maxTerminalJobs := flag.Int("max-terminal-jobs", 0, "keep at most this many terminal jobs, evicting the oldest (0 = unlimited)")
	gcInterval := flag.Duration("gc-interval", time.Minute, "period of the terminal-job eviction sweep")
	tracePath := flag.String("trace", "", "append a JSONL span trace (job → pool → scenario → strategy_run) to this file; read it with cmd/obsreport")
	traceRotate := flag.Int64("trace-rotate-bytes", 64<<20, "rotate the -trace file when it would exceed this many bytes")
	traceKeep := flag.Int("trace-keep", 8, "rotated -trace files to keep; older ones are deleted")
	fanout := flag.String("fanout", "", "comma-separated worker daemon URLs; when set this daemon is a coordinator that shards every job across them instead of executing locally")
	faultDelay := flag.Duration("fault-delay", 0, "dev-only throttle: sleep this long before each pool build, simulating a slow worker (CI's heterogeneous fan-out smoke)")
	flag.Parse()

	budgets, err := parseBudgets(*tenantBudgets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsd:", err)
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "", log.LstdFlags)

	// The trace sink appends (and rotates), so a restarted daemon extends
	// the same file set; the epoch marker tells readers where the new
	// process (and its fresh span numbering) begins. The tracer always tees
	// into the broadcast sink so GET /jobs/{id}/events sees the span stream
	// whether or not a file trace is configured.
	broadcast := obs.NewBroadcastSink(0)
	var rt *obs.Runtime
	var sink *obs.RotatingFileSink
	if *tracePath != "" {
		sink, err = obs.NewRotatingFileSink(*tracePath, *traceRotate, *traceKeep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfsd:", err)
			os.Exit(1)
		}
		tracer := obs.NewTracer(obs.MultiSink{sink, broadcast})
		tracer.Event(0, obs.EpochEvent, obs.Str("daemon", "dfsd"), obs.Str("addr", *addr))
		rt = obs.New(obs.WithTracer(tracer))
	}

	retry := core.RetryPolicy{
		MaxAttempts: *retries,
		BaseBackoff: *retryBase,
		CapBackoff:  *retryCap,
		JitterSeed:  *retrySeed,
	}

	// Coordinator mode: swap the pool builder for the fan-out. Everything
	// else — admission, drain/resume, streaming — is the ordinary server.
	var buildPool serve.PoolBuilder
	if *fanout != "" {
		var workerURLs []string
		for _, u := range strings.Split(*fanout, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, strings.TrimSuffix(u, "/"))
			}
		}
		if len(workerURLs) == 0 {
			fmt.Fprintln(os.Stderr, "dfsd: -fanout lists no worker URLs")
			os.Exit(2)
		}
		fo := &serve.Fanout{Workers: workerURLs, Retry: retry, Logf: logger.Printf}
		buildPool = fo.BuildPool
		logger.Printf("dfsd coordinating %d workers: %s", len(workerURLs), strings.Join(workerURLs, " "))
	}
	if *faultDelay > 0 {
		// A deliberately slowed daemon for heterogeneous-fleet testing: the
		// delay precedes each pool build, so every shard job this worker takes
		// costs an extra *faultDelay of wall clock.
		inner := buildPool
		if inner == nil {
			inner = bench.BuildPoolResumed
		}
		delay := *faultDelay
		buildPool = func(ctx context.Context, cfg bench.Config, opts bench.RunOptions) (*bench.Pool, error) {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return inner(ctx, cfg, opts)
		}
		logger.Printf("dfsd fault-delay: %s before every pool build", delay)
	}

	srv, err := serve.New(serve.Config{
		Dir:                 *data,
		QueueCap:            *queueCap,
		Workers:             *workers,
		PoolWorkers:         *poolWorkers,
		MaxScenarios:        *maxScenarios,
		DefaultDeadline:     *deadline,
		TenantBudgets:       budgets,
		DefaultTenantBudget: *defaultBudget,
		EvalStore:           *evalStore,
		JobTTL:              *jobTTL,
		MaxTerminalJobs:     *maxTerminalJobs,
		GCInterval:          *gcInterval,
		Retry:               retry,
		BuildPool:           buildPool,
		Obs:                 rt,
		TraceBroadcast:      broadcast,
		Logf:                logger.Printf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dfsd:", err)
		os.Exit(1)
	}
	if err := srv.Start(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "dfsd:", err)
		os.Exit(1)
	}
	logger.Printf("dfsd serving on http://%s (data %s, queue %d, workers %d)",
		srv.Addr(), *data, *queueCap, *workers)

	// First SIGINT/SIGTERM: graceful drain (stop admitting, checkpoint
	// in-flight jobs, persist lifecycle files, exit 0). Second signal:
	// force-exit 131 — the checkpoints are fsync'd per record, so even a
	// forced exit loses no completed scenario.
	ctx, stop := sigctx.WithSignals(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "dfsd:", err)
		os.Exit(1)
	}
	if sink != nil {
		// The drain already closed every job span; flush the tail and
		// surface any latched sink failure so an incomplete trace is loud.
		err := rt.Tracer().Err()
		if cerr := sink.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "dfsd: trace:", err)
			os.Exit(1)
		}
	}
	os.Exit(0)
}

// parseBudgets parses "name=units,name=units" into the tenant budget map.
func parseBudgets(s string) (map[string]float64, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, pair := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("invalid -tenant-budget entry %q (want name=units)", pair)
		}
		units, err := strconv.ParseFloat(val, 64)
		// ParseFloat accepts "NaN" and "+Inf"; a NaN budget passes every
		// comparison (spent >= limit is always false) and would silently mean
		// unlimited, so reject non-finite values along with negatives.
		if err != nil || math.IsNaN(units) || math.IsInf(units, 0) || units < 0 {
			return nil, fmt.Errorf("invalid budget for tenant %q: %q", name, val)
		}
		out[name] = units
	}
	return out, nil
}
