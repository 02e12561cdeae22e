package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"gemini/internal/metrics"
)

// Connection limits. A client that stalls mid-request, or never reads
// its response, loses the connection instead of holding it forever.
// Writes get enough time for a default 30 s /debug/pprof/profile (the
// handler rejects a profile that would outlast WriteTimeout).
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	writeTimeout      = 2 * time.Minute
	idleTimeout       = time.Minute
)

// Server is the campaign observability endpoint: /metrics serves the
// live progress counters plus the aggregated registry in Prometheus
// text exposition format, /progress serves the Snapshot as JSON, and
// /debug/pprof/* exposes the standard profiler handlers. It binds its
// own listener so callers can pass ":0" and discover the port — the
// first brick of the service-mode daemon on the ROADMAP.
type Server struct {
	prog *Progress
	reg  *SyncRegistry
	ln   net.Listener
	srv  *http.Server
}

// NewServer starts serving on addr (host:port; ":0" picks a free port).
// prog and reg may each be nil — the endpoints then render only what
// exists. The server runs until Close.
func NewServer(addr string, prog *Progress, reg *SyncRegistry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{prog: prog, reg: reg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close.
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	if s.prog != nil {
		snap := s.prog.Snapshot()
		cs := metrics.CounterSet{
			{Name: "campaign.total_runs", Value: float64(snap.TotalRuns)},
			{Name: "campaign.started_runs", Value: float64(snap.StartedRuns)},
			{Name: "campaign.done_runs", Value: float64(snap.DoneRuns)},
			{Name: "campaign.failures_replayed", Value: float64(snap.Failures)},
			{Name: "campaign.sim_seconds_done", Value: snap.SimSecondsDone},
			{Name: "campaign.elapsed_seconds", Value: snap.ElapsedSeconds},
			{Name: "campaign.eta_seconds", Value: snap.ETASeconds},
		}
		if err := metrics.WritePromSnapshot(w, cs); err != nil {
			return
		}
	}
	s.reg.WriteProm(w) //nolint:errcheck // best effort: client may hang up
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.prog.Snapshot()) //nolint:errcheck // best effort
}
