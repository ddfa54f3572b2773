package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/evalstore"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/serve"
)

// drainTimeout bounds a daemon's graceful drain at tear-down.
const drainTimeout = 30 * time.Second

// fanWorkers is the size of fanout_warm's fleet.
const fanWorkers = 2

// serveBed runs the served workloads. prepare warms a durable store by
// building every job spec once with bench.BuildPoolResumed — those CSVs are
// the references. Each round starts in-process daemons on 127.0.0.1:0 over a
// fresh copy of that store, so every job replays its scenarios whole from
// stored records and almost no compute is left: what is measured is
// admission, job persistence, checkpoint appends, result streaming and, with
// fan, the coordinator's micro-shard dispatch and record merging.
//
// A round is a fixed number of jobs, and its daemons are new, so every round
// starts from the same retained state; dfsd keeps finished jobs by default,
// and a round that ran for a fixed time would retain more of them on a
// faster commit.
//
// Clients are closed loops, one per CPU: POST /jobs, then
// GET /jobs/{id}/result?follow=1 to the last byte, then the next job. That
// is how dfsd's callers (AutoML drivers, CI) use it — submit and wait on the
// stream; overload shedding is dfsload's subject. Client c cycles through
// specs c, c+clients, ..., so two jobs in flight never share a spec.
type serveBed struct {
	e   *env
	fan bool

	specs []serve.JobSpec
	refs  [][]byte
	store string // the warmed store

	dir     string          // the round's daemons' data directory
	round   int             // the round's number, for tracing
	daemons []*serve.Server // workers first, the front daemon last
	rts     []*obs.Runtime  // the daemons' runtimes
	names   []string        // daemon names, parallel to rts
	front   string          // base URL clients talk to
	tr      *http.Transport
	client  *http.Client
}

func (b *serveBed) prepare(ctx context.Context) error {
	sz := b.e.sz
	if b.fan {
		b.specs = jobSpecs(b.e.seed, sz.FanSpecs, sz.FanScenarios)
	} else {
		b.specs = jobSpecs(b.e.seed, sz.Specs, sz.SpecScenarios)
	}
	b.store = b.e.freshDir("warm-store")
	st, err := evalstore.Open(b.store, evalstore.Options{})
	if err != nil {
		return err
	}
	b.refs = make([][]byte, len(b.specs))
	errs := make([]error, len(b.specs))
	closedLoop(len(b.specs), b.e.clients, func(i int) {
		p, err := bench.BuildPoolResumed(ctx, specConfig(b.specs[i]), bench.RunOptions{Store: st})
		if err == nil {
			b.refs[i], err = poolCSV(p)
		}
		errs[i] = err
	})
	if err := errors.Join(append(errs, st.Close())...); err != nil {
		return fmt.Errorf("warm store: %w", err)
	}
	for i := range b.refs {
		b.refs[i] = b.e.tamperRef(i, b.refs[i])
	}
	b.tr = &http.Transport{
		MaxConnsPerHost:     b.e.clients,
		MaxIdleConnsPerHost: b.e.clients,
		DisableCompression:  true,
	}
	b.client = &http.Client{Transport: b.tr}
	return nil
}

func (b *serveBed) storeDir() string { return b.store }

func (b *serveBed) minRounds() int { return 1 }

// stage copies the warm store for the round's daemons: each daemon's open
// adds a segment, and a store that accumulated them across rounds would
// compact inside one.
func (b *serveBed) stage() error {
	b.dir = b.e.freshDir("daemons")
	return copyDir(b.store, filepath.Join(b.dir, "store"))
}

// daemonRuntime builds the runtime a daemon gets by default — a tracer
// feeding the broadcast sink behind GET /jobs/{id}/events — here, so the
// benchmark can read its registry; a traced run tees the span stream into
// its collector too.
func (b *serveBed) daemonRuntime(tr *tracing, role, name string) (*obs.Runtime, *obs.BroadcastSink) {
	bc := obs.NewBroadcastSink(0)
	rt := tr.runtime(role, bc)
	b.rts = append(b.rts, rt)
	b.names = append(b.names, name)
	return rt, bc
}

// setUp starts the round's daemons and returns once each answers /healthz.
func (b *serveBed) setUp(ctx context.Context, tr *tracing) error {
	b.daemons, b.rts, b.names = nil, nil, nil
	b.round = tr.nextRound()
	store := filepath.Join(b.dir, "store")
	start := func(cfg serve.Config) (string, error) {
		srv, err := serve.New(cfg)
		if err != nil {
			return "", err
		}
		b.daemons = append(b.daemons, srv)
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return "", err
		}
		base := "http://" + srv.Addr()
		return base, b.healthy(ctx, base)
	}
	if !b.fan {
		rt, bc := b.daemonRuntime(tr, roleLocal, "dfsd")
		base, err := start(serve.Config{
			Dir: filepath.Join(b.dir, "dfsd"), EvalStore: store, Obs: rt, TraceBroadcast: bc,
			BuildPool: tr.wrap(bench.BuildPoolResumed, roleLocal, runtime.GOMAXPROCS(0)),
		})
		b.front = base
		return err
	}
	var urls []string
	for i := 0; i < fanWorkers; i++ {
		rt, bc := b.daemonRuntime(tr, roleWorker, fmt.Sprintf("worker%d", i))
		base, err := start(serve.Config{
			Dir: filepath.Join(b.dir, fmt.Sprintf("worker%d", i)), Workers: 1, PoolWorkers: 1,
			EvalStore: store, Obs: rt, TraceBroadcast: bc,
			BuildPool: tr.wrap(bench.BuildPoolResumed, roleWorker, 1),
		})
		if err != nil {
			return err
		}
		urls = append(urls, base)
	}
	fo := &serve.Fanout{Workers: urls, SpoolDir: filepath.Join(b.dir, "spool")}
	rt, bc := b.daemonRuntime(tr, roleCoordinator, "coordinator")
	base, err := start(serve.Config{
		Dir: filepath.Join(b.dir, "coordinator"), Obs: rt, TraceBroadcast: bc,
		BuildPool: tr.wrap(fo.BuildPool, roleCoordinator, 0),
	})
	b.front = base
	return err
}

// healthy waits for a daemon's /healthz to answer serving.
func (b *serveBed) healthy(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := b.client.Do(req)
		if err == nil {
			var hb struct {
				State string `json:"state"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&hb)
			resp.Body.Close()
			if derr == nil && hb.State == "serving" {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon %s never served: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// tearDown drains the front daemon first, so no shard job is submitted to
// a worker that is already gone, then the workers, and removes the round's
// data directory.
func (b *serveBed) tearDown(context.Context, *tracing) error {
	var errs []error
	for i := len(b.daemons) - 1; i >= 0; i-- {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		errs = append(errs, b.daemons[i].Drain(ctx))
		cancel()
	}
	b.daemons = nil
	b.tr.CloseIdleConnections()
	if b.dir != "" {
		errs = append(errs, os.RemoveAll(b.dir))
		b.dir = ""
	}
	return errors.Join(errs...)
}

// jobRec is one client-side job: when it was posted, answered, and when
// its first CSV row and last byte arrived.
type jobRec struct {
	round              int
	id                 string
	seed               uint64
	postStart, postEnd time.Time
	firstRow, lastByte time.Time
}

// work runs the round's jobs, RoundJobs split over the closed-loop clients.
func (b *serveBed) work(ctx context.Context, tr *tracing, ph *phase) error {
	perClient := (b.e.sz.RoundJobs + b.e.clients - 1) / b.e.clients
	if b.fan {
		perClient = (b.e.sz.FanRoundJobs + b.e.clients - 1) / b.e.clients
	}
	var wg sync.WaitGroup
	for c := 0; c < b.e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient && ctx.Err() == nil; k++ {
				i := (c + k*b.e.clients) % len(b.specs)
				rec, err := b.job(ctx, i)
				ph.record(rec.postStart, rec.lastByte, err)
				if err == nil {
					tr.addJob(rec)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range b.validate() {
		ph.invalid(err)
	}
	return ctx.Err()
}

// validate checks the round measured what it claims: every scenario a
// daemon built replayed whole from the store, and the coordinator never
// fell back from streaming to checkpoint downloads.
func (b *serveBed) validate() []error {
	var errs []error
	var executed, skipped int64
	for i, rt := range b.rts {
		snap := rt.Metrics().Snapshot()
		executed += snap.Counter("pool.scenarios_executed")
		skipped += snap.Counter("pool.schedule.skipped_durable")
		if n := snap.Counter("serve.fanout.stream_fallbacks"); n > 0 {
			errs = append(errs, fmt.Errorf("%s: %d fan-out stream fallbacks", b.names[i], n))
		}
	}
	if executed == 0 || skipped != executed {
		errs = append(errs, fmt.Errorf("warm store: %d of %d scenarios replayed whole from stored records, want all", skipped, executed))
	}
	return errs
}

// job runs spec i once: submit, follow the result stream to its end, and
// compare it with the spec's reference.
func (b *serveBed) job(ctx context.Context, i int) (jobRec, error) {
	rec := jobRec{round: b.round, seed: b.specs[i].Seed, postStart: time.Now()}
	body, err := json.Marshal(b.specs[i])
	if err != nil {
		return rec, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.front+"/jobs", bytes.NewReader(body))
	if err != nil {
		return rec, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return rec, err
	}
	var st serve.Status
	derr := json.NewDecoder(resp.Body).Decode(&st)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rec.postEnd = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		return rec, fmt.Errorf("POST /jobs: status %d", resp.StatusCode)
	}
	if derr != nil || st.ID == "" {
		return rec, fmt.Errorf("POST /jobs: bad status body: %v", derr)
	}
	rec.id = st.ID

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, b.front+"/jobs/"+st.ID+"/result?follow=1", nil)
	if err != nil {
		return rec, err
	}
	resp, err = b.client.Do(req)
	if err != nil {
		return rec, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rec, fmt.Errorf("follow %s: status %d", st.ID, resp.StatusCode)
	}
	var got bytes.Buffer
	chunk := make([]byte, 32<<10)
	lines := 0
	for {
		n, rerr := resp.Body.Read(chunk)
		if n > 0 {
			if rec.firstRow.IsZero() {
				// The header is line one; the first data row completes line two.
				if lines += bytes.Count(chunk[:n], []byte{'\n'}); lines >= 2 {
					rec.firstRow = time.Now()
				}
			}
			got.Write(chunk[:n])
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rec, fmt.Errorf("follow %s: %w", st.ID, rerr)
		}
	}
	rec.lastByte = time.Now()
	if state := resp.Trailer.Get("X-Dfs-Job-State"); state != string(serve.StateDone) {
		return rec, fmt.Errorf("job %s ended %q, not done", st.ID, state)
	}
	if !bytes.Equal(got.Bytes(), b.refs[i]) {
		return rec, fmt.Errorf("job %s (spec %d): streamed CSV differs from its reference (%d vs %d bytes)", st.ID, i, got.Len(), len(b.refs[i]))
	}
	return rec, nil
}

func (b *serveBed) probeInputs() ([]probeInput, error) {
	cfgs := make([]bench.Config, len(b.specs))
	for i, sp := range b.specs {
		cfgs[i] = specConfig(sp)
	}
	return slotProbeInputs(cfgs)
}
