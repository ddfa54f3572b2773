package serve

// Record and event streaming. Both record routes, GET /jobs/{id}/result (the
// pool CSV) and GET /jobs/{id}/checkpoint (the checkpoint NDJSON the fan-out
// coordinator merges), answer through one loop, serveRecords, plain for a
// done job or live with ?follow=1: records are emitted in scenario-ID order
// as they complete, so a followed stream is a byte-prefix of, and once the
// job finishes byte-identical to, the plain response. `GET
// /jobs/{id}/events` answers Server-Sent Events bridged from the obs span
// stream: the handler subscribes to the server's trace broadcast, walks the
// job's span tree (the job span opened at admission is the root), and
// forwards scenario/strategy span lifecycle and typed-failure events,
// folding the per-evaluation firehose into a memo hit-rate summary on a
// periodic progress event.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
)

// trailerJobState is the HTTP trailer carrying the job's state when a
// record stream ends, so a client can tell a complete body (done) from one
// truncated by a failure or drain without re-polling the status.
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

// streamResult answers GET /jobs/{id}/result: the pool CSV, rendered by
// bench.WriteRecordCSV, so a finished stream is byte-identical to the
// whole-pool dump.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, job *Job) {
	var rows bytes.Buffer
	cw := csv.NewWriter(&rows)
	_ = cw.Write(bench.PoolCSVHeader()) // into a bytes.Buffer: cannot fail
	cw.Flush()
	s.serveRecords(w, r, job, "text/csv", bytes.Clone(rows.Bytes()), 0, 0, func(rec *bench.Record) ([]byte, error) {
		rows.Reset()
		err := bench.WriteRecordCSV(cw, rec)
		cw.Flush()
		return rows.Bytes(), err
	})
}

// streamCheckpoint answers GET /jobs/{id}/checkpoint: the NDJSON transfer
// format the fan-out coordinator merges, the canonical header line of the
// job's config and then one line per record, marshaled from the Records
// the checkpoint file holds, so it parses (bench.ReadCheckpoint) to the
// same record set. A followed stream heartbeats blank lines while idle.
// &from=<id> starts it at the first of the job's scenarios at or past id,
// so a broken stream re-attaches where it left off; a cursor that is not a
// scenario ID in [0, scenarios] answers 400.
func (s *Server) streamCheckpoint(w http.ResponseWriter, r *http.Request, job *Job) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n > job.Spec.Scenarios {
			writeJSON(w, http.StatusBadRequest, errorBody{
				Error:  fmt.Sprintf("bad from cursor %q: want a scenario id in [0, %d]", v, job.Spec.Scenarios),
				Reason: RejectInvalid,
			})
			return
		}
		from = n
	}
	hdr, err := bench.EncodeCheckpointHeader(job.Spec.benchConfig(s.cfg, job.ID))
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "checkpoint header: " + err.Error()})
		return
	}
	s.serveRecords(w, r, job, "application/x-ndjson", hdr, from, checkpointKeepalive, func(rec *bench.Record) ([]byte, error) {
		line, err := json.Marshal(rec)
		return append(line, '\n'), err
	})
}

// serveRecords is the one loop behind every record response. It attaches
// to the job's records and writes head, then each contiguous run of
// completed records from scenario from on (in scenario-ID order, skipping
// IDs outside the job's shard), rendered by encode (whose bytes stay valid
// until its next call), one write and flush per run, until the job ends or
// the server drains; the job's state then goes in the X-Dfs-Job-State
// trailer. A plain request answers 409 unless the job is done, and then
// at once. While a followed job is idle it writes a blank line every
// keepalive (0 sends none). A checkpoint that does not read back whole
// answers a JSON error before any body byte: 410 when the file is gone
// (the job was evicted under the request), else 500. A record that cannot
// render aborts the response: the client sees a truncated body, never a
// silently short one.
func (s *Server) serveRecords(w http.ResponseWriter, r *http.Request, job *Job,
	contentType string, head []byte, from int, keepalive time.Duration, encode func(*bench.Record) ([]byte, error)) {
	if st := job.State(); st != StateDone && r.URL.Query().Get("follow") == "" {
		writeJSON(w, http.StatusConflict, errorBody{Error: fmt.Sprintf("job %s is %s, not done", job.ID, st)})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: "streaming unsupported by this connection"})
		return
	}
	src, detach, err := job.reader()
	if err != nil {
		s.cfg.Logf("serve: checkpoint %s: %v", job.ID, err)
		if errors.Is(err, fs.ErrNotExist) {
			writeJSON(w, http.StatusGone, errorBody{Error: fmt.Sprintf("job %s was evicted", job.ID)})
		} else {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: "checkpoint unreadable"})
		}
		return
	}
	defer detach()
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Trailer", trailerJobState)
	var beat <-chan time.Time
	if keepalive > 0 {
		t := time.NewTicker(keepalive)
		defer t.Stop()
		beat = t.C
	}
	var batch bytes.Buffer
	batch.Write(head)
	for {
		// Grab the wait channel before snapshotting, so a record landing
		// between the snapshot and the wait wakes the next iteration.
		ch := src.changed()
		recs, next, state := src.availableFrom(from)
		from = next
		for _, rec := range recs {
			b, err := encode(rec)
			if err != nil {
				s.cfg.Logf("serve: record stream %s: %v", job.ID, err)
				panic(http.ErrAbortHandler)
			}
			batch.Write(b)
		}
		if _, err := w.Write(batch.Bytes()); err != nil {
			return // client went away
		}
		batch.Reset()
		fl.Flush()
		if s.streamEnded(state) {
			w.Header().Set(trailerJobState, string(state))
			return
		}
		select {
		case <-ch:
		case <-s.drained:
		case <-beat:
			batch.WriteByte('\n')
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
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, job *Job) {
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
