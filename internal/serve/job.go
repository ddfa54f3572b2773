package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/core"
	"github.com/declarative-fs/dfs/internal/obs"
	"github.com/declarative-fs/dfs/internal/synth"
)

// State is a job's position in the lifecycle state machine:
//
//	queued ──▶ running ──▶ done
//	   ▲           │ ├───▶ failed
//	   │           ▼ ▼
//	   └──────── drained (restart re-enqueues as queued)
//
// done and failed are terminal; drained means a graceful drain checkpointed
// the job mid-run and a restarted daemon will resume it bit-identically.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: a worker is executing the pool build.
	StateRunning State = "running"
	// StateDone: the pool completed; the result is available.
	StateDone State = "done"
	// StateFailed: the job terminated with a typed error (see
	// Job.FailureCategory); its checkpoint is retained for post-mortems but
	// it is not re-enqueued.
	StateFailed State = "failed"
	// StateDrained: a graceful drain interrupted the job after its completed
	// scenarios were checkpointed; a restart resumes it.
	StateDrained State = "drained"
)

// terminal reports whether the state never transitions again.
func (s State) terminal() bool { return s == StateDone || s == StateFailed }

// JobSpec is the client-declared scenario-selection workload: the subset of
// bench.Config a tenant may choose, plus per-job deadline and attribution.
// Everything else (workers, checkpoint paths, kernel parallelism) is
// operator policy set on the server.
type JobSpec struct {
	// Scenarios is the number of fuzzed scenarios to run (required, >= 1).
	Scenarios int `json:"scenarios"`
	// Seed drives all randomness; identical specs reproduce bit-for-bit.
	Seed uint64 `json:"seed"`
	// HPO enables the hyperparameter grids of §6.1.
	HPO bool `json:"hpo,omitempty"`
	// Utility switches to utility maximization (Eq. 2) instead of
	// first-satisfaction.
	Utility bool `json:"utility,omitempty"`
	// MaxEvals bounds real compute per strategy run; 0 means the default.
	MaxEvals int `json:"max_evals,omitempty"`
	// Datasets restricts the dataset profiles; empty means all.
	Datasets []string `json:"datasets,omitempty"`
	// Tenant attributes the job for per-tenant budget accounting; empty
	// means the anonymous default tenant.
	Tenant string `json:"tenant,omitempty"`
	// DeadlineSeconds is the wall-clock deadline for the job; 0 inherits the
	// server default, negative is rejected.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// ShardIndex/ShardCount restrict the job to a round-robin slice of the
	// scenario IDs (scenario i runs when i % count == index): the fan-out
	// coordinator partitions one logical job into ShardCount worker jobs
	// whose checkpoints MergeShards reassembles bit-identically. Zero count
	// means the whole pool.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// shardSpec maps the spec's shard fields onto the bench partitioning.
func (sp JobSpec) shardSpec() bench.ShardSpec {
	return bench.ShardSpec{Index: sp.ShardIndex, Count: sp.ShardCount}
}

// validate rejects malformed specs at admission time, before they occupy a
// queue slot.
func (sp JobSpec) validate(maxScenarios int) error {
	if sp.Scenarios < 1 {
		return fmt.Errorf("scenarios must be >= 1 (got %d)", sp.Scenarios)
	}
	if maxScenarios > 0 && sp.Scenarios > maxScenarios {
		return fmt.Errorf("scenarios %d exceeds the server cap %d", sp.Scenarios, maxScenarios)
	}
	if sp.MaxEvals < 0 {
		return fmt.Errorf("max_evals must be >= 0 (got %d)", sp.MaxEvals)
	}
	if sp.DeadlineSeconds < 0 {
		return fmt.Errorf("deadline_seconds must be >= 0 (got %g)", sp.DeadlineSeconds)
	}
	if err := sp.shardSpec().Validate(); err != nil {
		return fmt.Errorf("invalid shard %d/%d", sp.ShardIndex, sp.ShardCount)
	}
	for _, d := range sp.Datasets {
		if _, err := synth.ByName(d); err != nil {
			return fmt.Errorf("unknown dataset %q", d)
		}
	}
	return nil
}

// benchConfig maps the spec onto the benchmark harness config. The mapping
// must be deterministic: the config doubles as the checkpoint identity, so
// a restarted daemon has to reconstruct it exactly to resume the job.
func (sp JobSpec) benchConfig(c Config, label string) bench.Config {
	mode := core.ModeSatisfy
	if sp.Utility {
		mode = core.ModeMaximizeUtility
	}
	return bench.Config{
		Scenarios: sp.Scenarios,
		Seed:      sp.Seed,
		HPO:       sp.HPO,
		Mode:      mode,
		MaxEvals:  sp.MaxEvals,
		Datasets:  sp.Datasets,
		Workers:   c.PoolWorkers,
		Shard:     sp.shardSpec(),
		Label:     label,
	}
}

// deadline resolves the job's wall deadline against the server default.
func (sp JobSpec) deadline(c Config) time.Duration {
	if sp.DeadlineSeconds > 0 {
		return time.Duration(sp.DeadlineSeconds * float64(time.Second))
	}
	return c.DefaultDeadline
}

// Job is one admitted scenario-selection job. Mutable fields are guarded by
// mu; the identity fields (ID, Tenant, Spec) and ckpt are immutable after
// admission.
type Job struct {
	ID     string
	Tenant string
	Spec   JobSpec

	ckpt     string     // the job's checkpoint file
	resident *obs.Gauge // serve.jobs.records_resident, moved with len(live)

	mu       sync.Mutex
	state    State
	err      string
	category core.FailureCategory
	retries  int
	cost     float64
	resumed  bool // re-enqueued from disk by a restarted daemon

	// live indexes the records the checkpoint took, by scenario ID, while
	// they are resident: until the job is terminal and no stream that
	// attached before then (followers) is still reading. Then release drops
	// them, and every later reader reads them back from the checkpoint
	// (reader). recordsDone counts them for Status.RecordsDone and outlives
	// live. update is the change-notification channel: closed and replaced
	// whenever a record lands or the state moves, so streamers wait without
	// polling.
	live        map[int]*bench.Record
	recordsDone int
	followers   int
	update      chan struct{}

	// Process-local tracing and SLO state, never persisted. span is the
	// job's trace identity, opened at admission; the worker that runs the
	// job is the only writer of dequeuedAt and the only closer of the span
	// until Drain quiesces the workers (wg.Wait orders those writes before
	// Drain's final sweep over still-queued jobs).
	span       obs.SpanID
	spanOpen   bool
	admittedAt time.Time
	dequeuedAt time.Time
}

// Status is the wire representation of a job, returned by GET /jobs/{id}.
type Status struct {
	ID    string  `json:"id"`
	State State   `json:"state"`
	Spec  JobSpec `json:"spec"`
	// RecordsDone counts the job's completed records, resumed or executed,
	// deduplicated: the records the result and checkpoint streams serve, so
	// it is monotone toward RecordsTotal.
	RecordsDone int `json:"records_done"`
	// RecordsTotal is the number of scenarios this job will produce: the
	// job's shard slice of Spec.Scenarios (equal to Spec.Scenarios for
	// unsharded jobs).
	RecordsTotal int `json:"records_total"`
	// Retries counts transient retry attempts spent on the job.
	Retries int `json:"retries,omitempty"`
	// Resumed reports the job was re-adopted from disk by a restart.
	Resumed bool `json:"resumed,omitempty"`
	// Error and FailureCategory type a failed job (core.Classify taxonomy).
	Error           string `json:"error,omitempty"`
	FailureCategory string `json:"failure_category,omitempty"`
	// Cost is the simulated cost charged to the tenant on completion.
	Cost float64 `json:"cost,omitempty"`
}

// Status snapshots the job's wire representation.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{
		ID:              j.ID,
		State:           j.state,
		Spec:            j.Spec,
		RecordsDone:     j.recordsDone,
		RecordsTotal:    j.Spec.shardSpec().Size(j.Spec.Scenarios),
		Retries:         j.retries,
		Resumed:         j.resumed,
		Error:           j.err,
		FailureCategory: string(j.category),
		Cost:            j.cost,
	}
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) setState(s State) {
	j.mu.Lock()
	j.state = s
	j.notifyLocked()
	j.mu.Unlock()
}

// notifyLocked wakes every changed() waiter. Callers hold j.mu.
func (j *Job) notifyLocked() {
	if j.update != nil {
		close(j.update)
		j.update = nil
	}
}

// changed returns a channel closed at the next record arrival or state
// transition. Grab it before reading the state you wait on, so a change
// between the read and the wait is never missed.
func (j *Job) changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.update == nil {
		j.update = make(chan struct{})
	}
	return j.update
}

// publish registers a record the checkpoint took for live streaming
// (deduplicated by scenario ID — retries re-resume the checkpoint and would
// otherwise replay records) and wakes streamers.
func (j *Job) publish(rec *bench.Record) {
	j.mu.Lock()
	if j.live == nil {
		j.live = make(map[int]*bench.Record)
	}
	if _, ok := j.live[rec.ID]; !ok {
		j.live[rec.ID] = rec
		j.recordsDone++
		j.resident.Add(1)
		j.notifyLocked()
	}
	j.mu.Unlock()
}

// releaseLocked drops a terminal job's resident records once no stream is
// reading them; its checkpoint holds every one. Callers hold j.mu.
func (j *Job) releaseLocked() {
	if j.state.terminal() && j.followers == 0 && j.live != nil {
		j.resident.Add(-int64(len(j.live)))
		j.live = nil
	}
}

// reader attaches a stream to the job's records. It returns the job to read
// them from and the func to call when the stream ends. While the records
// are resident that is the job itself, and they stay resident until that
// call. Once the job has released them it is a finished copy read back from
// the checkpoint, which the stream holds alone.
func (j *Job) reader() (*Job, func(), error) {
	j.mu.Lock()
	if !j.state.terminal() || j.followers > 0 {
		j.followers++
		j.mu.Unlock()
		return j, j.detach, nil
	}
	state, want := j.state, j.recordsDone
	j.mu.Unlock()
	back := &Job{ID: j.ID, Spec: j.Spec, state: state}
	if want > 0 {
		recs, err := j.readBack(want)
		if err != nil {
			return nil, nil, err
		}
		back.live = make(map[int]*bench.Record, len(recs))
		for i := range recs {
			back.live[recs[i].ID] = &recs[i]
		}
	}
	return back, func() {}, nil
}

// detach ends a stream's attachment, releasing the records when it was the
// last reader of a terminal job.
func (j *Job) detach() {
	j.mu.Lock()
	j.followers--
	j.releaseLocked()
	j.mu.Unlock()
}

// readBack reads the job's records back from its fsync'd checkpoint: the
// same JSON round trip a restarted daemon recovers a done job through, so
// they are bit-identical to the records the job published. want is how
// many it published; a checkpoint that no longer holds that many (evicted,
// damaged) is an error, so no reader ever serves a short result.
func (j *Job) readBack(want int) ([]bench.Record, error) {
	_, recs, err := bench.ReadCheckpoint(j.ckpt)
	if err != nil {
		return nil, err
	}
	if len(recs) < want {
		return nil, fmt.Errorf("serve: checkpoint of job %s holds %d of its %d records", j.ID, len(recs), want)
	}
	return recs, nil
}

// availableFrom returns the contiguous run of completed records starting at
// scenario ID next (skipping IDs outside the job's shard), the ID to resume
// from, and the current state. Streamers call it in a loop: emit what is
// available, wait on changed(), repeat.
func (j *Job) availableFrom(next int) ([]*bench.Record, int, State) {
	shard := j.Spec.shardSpec()
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []*bench.Record
	for next < j.Spec.Scenarios {
		if !shard.Contains(next) {
			next++
			continue
		}
		rec := j.live[next]
		if rec == nil {
			break
		}
		out = append(out, rec)
		next++
	}
	return out, next, j.state
}

func (j *Job) bumpRetries() {
	j.mu.Lock()
	j.retries++
	j.mu.Unlock()
}

// jobFile is the on-disk form of a job (one JSON file per job next to its
// checkpoint), rewritten atomically at every state transition so a
// restarted daemon reconstructs the exact lifecycle position.
type jobFile struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant,omitempty"`
	Spec     JobSpec `json:"spec"`
	State    State   `json:"state"`
	Error    string  `json:"error,omitempty"`
	Category string  `json:"category,omitempty"`
	Retries  int     `json:"retries,omitempty"`
	Cost     float64 `json:"cost,omitempty"`
}

const (
	jobFileSuffix  = ".job.json"
	ckptFileSuffix = ".ckpt"
)

// persist writes the job's current lifecycle position to disk via a
// temp-file rename, so a crash mid-write leaves the previous intact version
// rather than a torn file.
func (j *Job) persist(dir string) error {
	j.mu.Lock()
	jf := jobFile{
		ID: j.ID, Tenant: j.Tenant, Spec: j.Spec, State: j.state,
		Error: j.err, Category: string(j.category), Retries: j.retries, Cost: j.cost,
	}
	j.mu.Unlock()
	data, err := json.Marshal(jf)
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", jf.ID, err)
	}
	path := filepath.Join(dir, jf.ID+jobFileSuffix)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadJob reads one persisted job file.
func loadJob(path string) (*Job, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var jf jobFile
	if err := json.Unmarshal(data, &jf); err != nil {
		return nil, fmt.Errorf("serve: corrupt job file %s: %w", path, err)
	}
	if jf.ID == "" || jf.State == "" {
		return nil, fmt.Errorf("serve: job file %s missing id or state", path)
	}
	return &Job{
		ID: jf.ID, Tenant: jf.Tenant, Spec: jf.Spec,
		state: jf.State, err: jf.Error, category: core.FailureCategory(jf.Category),
		retries: jf.Retries, cost: jf.Cost,
	}, nil
}
