package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"github.com/declarative-fs/dfs/internal/bench"
	"github.com/declarative-fs/dfs/internal/obs"
)

// checkBodyDrained verifies the request body held exactly the one JSON
// document the decoder consumed: no second document, no non-whitespace
// trailer. (The decoder itself stops at the end of the first value, so
// `{...}garbage` would otherwise be accepted.)
func checkBodyDrained(dec *json.Decoder, body io.Reader) error {
	if dec.More() {
		return errors.New("bad job spec: trailing data after JSON document")
	}
	// dec.More tolerates trailing whitespace but reports a syntax error via
	// Token; any remaining bytes past the decoder's buffer show up here too.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("bad job spec: trailing data after JSON document")
	}
	if n, _ := io.Copy(io.Discard, body); n > 0 {
		return errors.New("bad job spec: trailing data after JSON document")
	}
	return nil
}

// retryAfterSeconds is the client backoff hint attached to 429/503
// rejections. Job runtimes are seconds-scale, so a short fixed hint keeps
// well-behaved clients cheap without coordinating state.
const retryAfterSeconds = 2

// Handler returns the service's HTTP API:
//
//	POST /jobs             submit a JobSpec          → 202 Status
//	GET  /jobs             list all jobs             → 200 []Status
//	GET  /jobs/{id}        one job's lifecycle state → 200 Status
//	GET  /jobs/{id}/result completed pool as CSV     → 200 text/csv
//	                       (?follow=1 → chunked CSV streamed while running)
//	GET  /jobs/{id}/events SSE progress stream       → 200 text/event-stream
//	GET  /jobs/{id}/checkpoint  raw checkpoint JSONL → 200 x-ndjson (done only;
//	                       ?follow=1 → NDJSON streamed while running, with
//	                       blank-line keepalives and an X-Dfs-Job-State trailer;
//	                       &from=<id> starts at the first shard scenario ≥ id)
//	GET  /metrics          obs metrics registry      → 200 JSON
//	                       (?format=prom → Prometheus text exposition)
//	GET  /healthz          serving/draining state    → 200 JSON
//	     /debug/pprof/...  live profiling
//
// Rejections are JSON with a typed "reason": 400 invalid spec, 413 oversized
// body, 429 queue full or tenant budget exhausted (with Retry-After), 503
// draining (with Retry-After).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, "dfsd selection service\nPOST /jobs\nGET /jobs\nGET /jobs/{id}\nGET /jobs/{id}/result\n/metrics /healthz /debug/pprof/\n")
	})
	return mux
}

// errorBody is the JSON shape of every rejection.
type errorBody struct {
	Error  string       `json:"error"`
	Reason RejectReason `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSubmitBody bounds a POST /jobs request body. A JobSpec is a few hundred
// bytes at most; without the cap a client (or a confused proxy) could stream
// an arbitrarily large body into the JSON decoder and hold a connection's
// worth of memory for as long as it likes.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
				Error:  fmt.Sprintf("job spec exceeds %d bytes", tooBig.Limit),
				Reason: RejectInvalid,
			})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad job spec: " + err.Error(), Reason: RejectInvalid})
		return
	}
	// Exactly one JSON document: trailing garbage means the client and the
	// server disagree about the request framing, so reject rather than
	// silently run the first spec.
	if err := checkBodyDrained(dec, r.Body); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error(), Reason: RejectInvalid})
		return
	}
	job, reason, err := s.Submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch reason {
		case RejectQueueFull, RejectBudget:
			// Admission control must shed load without blocking the accept
			// loop: answer immediately and tell the client when to retry.
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
			code = http.StatusTooManyRequests
		case RejectDraining:
			w.Header().Set("Retry-After", fmt.Sprint(retryAfterSeconds))
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, errorBody{Error: err.Error(), Reason: reason})
		return
	}
	writeJSON(w, http.StatusAccepted, job.Status())
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job"})
		return
	}
	if r.URL.Query().Get("follow") != "" {
		s.streamResult(w, r, job)
		return
	}
	pool := job.result()
	if pool == nil {
		writeJSON(w, http.StatusConflict, errorBody{
			Error: fmt.Sprintf("job %s is %s, not done", job.ID, job.State()),
		})
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	if err := bench.WritePoolCSV(w, pool); err != nil {
		// Headers are gone; the best we can do is cut the connection so the
		// client sees a truncated body instead of a silently short CSV.
		s.cfg.Logf("serve: result %s: %v", job.ID, err)
		panic(http.ErrAbortHandler)
	}
}

// handleMetrics serves the registry — JSON by default, Prometheus text
// exposition with ?format=prom — refreshing the scrape-time gauges (oldest
// queued job age, eval-store sizes) first so a scraper always reads a
// current value without the hot path maintaining one.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncScrapeGauges(time.Now())
	if r.URL.Query().Get("format") == "prom" {
		w.Header().Set("Content-Type", obs.PromContentType)
		_ = s.rt.Metrics().WriteProm(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = s.rt.Metrics().WriteJSON(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// Health probes read the same registry scrapers do, so refresh the
	// scrape-time gauges here too — otherwise a probe-only deployment reports
	// a stale oldest-queued-age forever.
	s.syncScrapeGauges(time.Now())
	state := "serving"
	if s.Draining() {
		state = "draining"
	}
	s.mu.Lock()
	total := len(s.jobs)
	queued := s.queued
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"state":     state,
		"jobs":      total,
		"queued":    queued,
		"queue_cap": s.cfg.QueueCap,
	})
}
