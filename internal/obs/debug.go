package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// DebugServer is the optional live-inspection listener of a run: the
// standard pprof surface for CPU/heap/goroutine profiling plus the obs
// metrics dump, whose pool.* counters are the run's live progress.
type DebugServer struct {
	lis net.Listener
	srv *http.Server
}

// StartDebug serves the debug endpoints on addr (e.g. "127.0.0.1:8090", or
// ":0" to pick a free port — see Addr):
//
//	/debug/pprof/   pprof index, profile, heap, goroutine, trace, ...
//	/metrics        registry dump (JSON; ?format=prom for Prometheus text)
//
// The server runs until Close. A nil runtime still serves pprof; /metrics
// reports empty state.
func StartDebug(addr string, rt *Runtime) (*DebugServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: debug listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", PromContentType)
			_ = rt.Metrics().WriteProm(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = rt.Metrics().WriteJSON(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "dfs debug listener\n/debug/pprof/\n/metrics\n")
	})
	s := &DebugServer{lis: lis, srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}}
	go func() { _ = s.srv.Serve(lis) }()
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *DebugServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the listener.
func (s *DebugServer) Close() error {
	if s == nil {
		return nil
	}
	err := s.srv.Close()
	// srv.Close closes only the listeners Serve has taken; one it has not
	// taken yet (a Close right after StartDebug) would stay bound.
	_ = s.lis.Close()
	return err
}
