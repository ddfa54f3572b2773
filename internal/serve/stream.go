package serve

// Live result streaming: the poll-then-fetch API (GET /jobs/{id} until
// done, then GET /jobs/{id}/result) gains two streaming views of a job that
// is still running. `GET /jobs/{id}/result?follow=1` answers a chunked CSV
// whose rows appear as scenarios complete, emitted in scenario-ID order so
// the stream is a byte-prefix of — and, once the job finishes, byte-identical
// to — the terminal CSV dump. `GET /jobs/{id}/events` answers Server-Sent
// Events bridged from the obs span stream: the handler subscribes to the
// server's trace broadcast, walks the job's span tree (the job span opened
// at admission is the root), and forwards scenario/strategy span lifecycle
// and typed-failure events, folding the per-evaluation firehose into a memo
// hit-rate summary on a periodic progress event.

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
)

// trailerJobState is the HTTP trailer carrying the job's state when a
// followed result stream ends, so a client can tell a complete CSV (done)
// from one truncated by a failure or drain without re-polling the status.
const trailerJobState = "X-Dfs-Job-State"

// sseProgressInterval paces the synthesized progress events of an SSE
// stream; sseEndGrace is how long a stream keeps forwarding span-tree lines
// after the job turns terminal, so the tail of the trace (the job's own end
// span) reaches the client before the stream closes. Variables, not
// constants, so tests can tighten them.
var (
	sseProgressInterval = time.Second
	sseEndGrace         = 200 * time.Millisecond
)

// checkpointKeepalive paces the blank-line heartbeats of a followed
// checkpoint stream, so a reader can tell a slow scenario from a dead
// worker without an overall request timeout. A variable so tests (and the
// fan-out's liveness watchdog) can tighten it.
var checkpointKeepalive = 2 * time.Second

// streamResult answers GET /jobs/{id}/result: a chunked CSV of completed
// records emitted in scenario-ID order as they become available, ending
// when the job reaches a terminal (or drained) state or the server drains.
// The job state at stream end is declared in the X-Dfs-Job-State trailer.
// On a done job it writes the whole result at once, which is how the plain
// GET answers.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, job *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	src, detach, err := job.reader()
	if err != nil {
		s.readBackFailed(w, job, err)
		return
	}
	defer detach()
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Trailer", trailerJobState)
	cw := csv.NewWriter(w)
	if err := cw.Write(bench.PoolCSVHeader()); err != nil {
		return
	}
	cw.Flush()
	fl.Flush()
	next := 0
	for {
		// Grab the wait channel before snapshotting, so a record landing
		// between the snapshot and the wait wakes the next iteration.
		ch := src.changed()
		recs, n, state := src.availableFrom(next)
		next = n
		for _, rec := range recs {
			if err := bench.WriteRecordCSV(cw, rec); err != nil {
				// Same contract as the whole-pool dump: a record that cannot
				// render aborts the response so the client sees a truncated
				// body, never a silently short CSV.
				s.cfg.Logf("serve: result stream %s: %v", job.ID, err)
				panic(http.ErrAbortHandler)
			}
		}
		cw.Flush()
		if cw.Error() != nil {
			return // client went away
		}
		fl.Flush()
		if s.streamEnded(state) {
			w.Header().Set(trailerJobState, string(state))
			return
		}
		select {
		case <-ch:
		case <-s.drained:
		case <-r.Context().Done():
			return
		}
	}
}

// handleCheckpoint serves a job's checkpoint in the JSONL transfer format
// the fan-out coordinator reassembles pools from. Without ?follow it copies
// the completed job's raw checkpoint file (done jobs only); with ?follow=1
// it streams the same format live — the header line first, then one record
// line per completed scenario in contiguous scenario-ID order as they land,
// blank-line keepalives while idle, ending (when the job does or the server
// drains) with the job's state in the X-Dfs-Job-State trailer. The followed
// stream is how the coordinator fills its own checkpoint in record-sized
// steps while shards are still running; &from=<scenario id> starts it at
// the first of the job's scenarios at or past that ID, so a broken stream
// re-attaches where it left off.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	if r.URL.Query().Get("follow") != "" {
		s.streamCheckpoint(w, r, job)
		return
	}
	if job.State() != StateDone {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job %s is %s, not done", job.ID, job.State()),
		})
		return
	}
	f, err := os.Open(job.ckpt)
	if err != nil {
		s.readBackFailed(w, job, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/x-ndjson")
	if _, err := io.Copy(w, f); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// readBackFailed answers a request whose job's checkpoint does not read
// back whole with a JSON error, before any byte of the body: 410 when the
// file is gone (the job was evicted under the request), else 500.
func (s *Server) readBackFailed(w http.ResponseWriter, job *Job, err error) {
	s.cfg.Logf("serve: checkpoint %s: %v", job.ID, err)
	if errors.Is(err, fs.ErrNotExist) {
		writeJSON(w, http.StatusGone, errorBody{Error: fmt.Sprintf("job %s was evicted", job.ID)})
		return
	}
	writeJSON(w, http.StatusInternalServerError, errorBody{Error: "checkpoint unreadable"})
}

// streamCheckpoint answers GET /jobs/{id}/checkpoint?follow=1[&from=<id>]:
// a live NDJSON rendering of the job's checkpoint. The record lines are
// marshaled from the same Records the checkpoint file holds, so a completed
// stream parses to the identical record set. from must be a scenario ID in
// [0, scenarios]; anything else answers 400.
func (s *Server) streamCheckpoint(w http.ResponseWriter, r *http.Request, job *Job) {
	next := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > job.Spec.Scenarios {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error:  fmt.Sprintf("bad from cursor %q: want a scenario id in [0, %d]", v, job.Spec.Scenarios),
				Reason: RejectInvalid,
			})
			return
		}
		next = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	hdr, err := bench.EncodeCheckpointHeader(job.Spec.benchConfig(s.cfg, job.ID))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "checkpoint header: " + err.Error()})
		return
	}
	src, detach, err := job.reader()
	if err != nil {
		s.readBackFailed(w, job, err)
		return
	}
	defer detach()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Trailer", trailerJobState)
	if _, err := w.Write(hdr); err != nil {
		return
	}
	fl.Flush()
	keep := time.NewTicker(checkpointKeepalive)
	defer keep.Stop()
	for {
		// Grab the wait channel before snapshotting, so a record landing
		// between the snapshot and the wait wakes the next iteration.
		ch := src.changed()
		recs, n, state := src.availableFrom(next)
		next = n
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				// Same contract as the CSV stream: abort so the client sees a
				// truncated body, never a silently short checkpoint.
				s.cfg.Logf("serve: checkpoint stream %s: %v", job.ID, err)
				panic(http.ErrAbortHandler)
			}
			if _, err := w.Write(append(line, '\n')); err != nil {
				return
			}
		}
		fl.Flush()
		if s.streamEnded(state) {
			w.Header().Set(trailerJobState, string(state))
			return
		}
		select {
		case <-ch:
		case <-s.drained:
		case <-keep.C:
			if _, err := w.Write([]byte("\n")); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// traceLine is the minimal decode of one span-stream record: enough to
// walk the span tree and classify the line. Attribute keys the bridge
// cares about (memo state, failure category, strategy) ride along.
type traceLine struct {
	T        string `json:"t"`
	ID       uint64 `json:"id"`
	Span     uint64 `json:"span"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	Memo     string `json:"memo"`
	Category string `json:"category"`
}

// progressEvent is the data payload of the synthesized SSE progress event:
// the job's Status plus what only this stream knows.
type progressEvent struct {
	Status
	// Memo accounting over the eval events seen by this stream (the raw
	// per-evaluation events are folded into this summary, not forwarded).
	MemoHits    uint64  `json:"memo_hits"`
	MemoMisses  uint64  `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	// DroppedLines counts span-stream lines this subscriber lost to
	// backpressure; nonzero means the event stream is best-effort sampled.
	DroppedLines uint64 `json:"dropped_lines,omitempty"`
}

// handleEvents answers GET /jobs/{id}/events with an SSE stream bridged
// from the obs span stream. Events:
//
//	status    initial and terminal progressEvent snapshots
//	progress  periodic progressEvent (records done, memo hit rate)
//	<name>_start / <name>_end   span lifecycle inside the job's tree
//	          (scenario_start, scenario_end, pool_start, ...)
//	retry / degradation / checkpoint_write / resume_skip / dequeue
//	          point events, each carrying the raw trace line as data
//
// Per-evaluation events are counted into the progress summary instead of
// being forwarded. The stream ends shortly after the job turns terminal.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	sub := s.bcast.Subscribe(4096)
	defer sub.Close()

	br := &sseBridge{w: w, fl: fl, sub: sub, job: job, spans: make(map[uint64]bool), spanName: make(map[uint64]string)}
	// The job span is opened at admission, before the job becomes visible to
	// handlers, so reading it without the job lock is safe.
	if id := uint64(job.span); id != 0 {
		br.spans[id] = true
	}
	if err := br.progress("status"); err != nil {
		return
	}
	ticker := time.NewTicker(sseProgressInterval)
	defer ticker.Stop()
	jobCh := job.changed()
	var endC <-chan time.Time
	armEnd := func() {
		if endC == nil && endedState(job.State()) {
			t := time.NewTimer(sseEndGrace)
			endC = t.C
		}
	}
	armEnd() // the job may already be terminal (e.g. a done job's replay)
	for {
		select {
		case line, ok := <-sub.C:
			if !ok {
				// Server drain closed the broadcast; finish with a last status.
				_ = br.progress("status")
				return
			}
			if err := br.forward(line); err != nil {
				return
			}
		case <-jobCh:
			jobCh = job.changed()
			if err := br.progress("status"); err != nil {
				return
			}
			armEnd()
		case <-ticker.C:
			if err := br.progress("progress"); err != nil {
				return
			}
			armEnd()
		case <-endC:
			_ = br.progress("status")
			return
		case <-r.Context().Done():
			return
		}
	}
}

// endedState reports states after which an event stream has nothing left to
// say (drained included: the job only moves again in a future process).
func endedState(st State) bool { return st.terminal() || st == StateDrained }

// streamEnded reports whether a followed stream of a job in state st has
// nothing left to wait for: the job ended, or the server drained, after
// which a job still queued also only moves in a future process.
func (s *Server) streamEnded(st State) bool {
	select {
	case <-s.drained:
		return true
	default:
		return endedState(st)
	}
}

// sseBridge filters the span stream down to one job's tree and writes SSE
// frames.
type sseBridge struct {
	w   io.Writer
	fl  http.Flusher
	sub interface{ Dropped() uint64 }
	job *Job

	spans    map[uint64]bool   // span IDs known to belong to the job's tree
	spanName map[uint64]string // id → span name, for <name>_end events
	hits     uint64            // memo hits among eval events seen
	misses   uint64            // memo misses (off/miss) among eval events seen
}

// forward classifies one raw trace line, updates the tree/memo state, and
// emits an SSE frame when the line belongs to the job.
func (b *sseBridge) forward(line []byte) error {
	var tl traceLine
	if err := json.Unmarshal(line, &tl); err != nil {
		return nil // foreign or torn line; the span stream is best-effort
	}
	switch tl.T {
	case "start":
		if !b.spans[tl.Parent] {
			return nil
		}
		b.spans[tl.ID] = true
		b.spanName[tl.ID] = tl.Name
		return b.event(tl.Name+"_start", line)
	case "end":
		if !b.spans[tl.ID] {
			return nil
		}
		name := b.spanName[tl.ID]
		delete(b.spanName, tl.ID)
		if name == "" {
			name = "job" // the root span's start predates the subscription
		}
		return b.event(name+"_end", line)
	case "event":
		if !b.spans[tl.Span] {
			return nil
		}
		if tl.Name == "eval" {
			// Folded into the progress summary; forwarding every evaluation
			// would swamp the stream.
			if tl.Memo == "hit" {
				b.hits++
			} else {
				b.misses++
			}
			return nil
		}
		return b.event(tl.Name, line)
	}
	return nil
}

// event writes one SSE frame; data is a single line (the trace encoder
// never emits embedded newlines).
func (b *sseBridge) event(name string, data []byte) error {
	if _, err := fmt.Fprintf(b.w, "event: %s\ndata: %s\n\n", name, trimNewline(data)); err != nil {
		return err
	}
	b.fl.Flush()
	return nil
}

// progress emits a synthesized summary frame under the given event name.
func (b *sseBridge) progress(name string) error {
	pe := progressEvent{
		Status:       b.job.Status(),
		MemoHits:     b.hits,
		MemoMisses:   b.misses,
		DroppedLines: b.sub.Dropped(),
	}
	if total := b.hits + b.misses; total > 0 {
		pe.MemoHitRate = float64(b.hits) / float64(total)
	}
	data, err := json.Marshal(pe)
	if err != nil {
		return err
	}
	return b.event(name, data)
}

func trimNewline(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
