// Package obs provides the opt-in HTTP admin server every PS2Stream
// process can expose: Prometheus-text metrics on /metrics, a JSON
// snapshot on /statsz, liveness plus role/epoch/build info on /healthz,
// and the standard net/http/pprof profiling endpoints under
// /debug/pprof/. Stdlib only.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"ps2stream/internal/metrics"
)

// Options configures an admin server.
type Options struct {
	// Registry backs /metrics and /statsz; nil serves empty expositions.
	Registry *metrics.Registry
	// Role and Task identify this process in /healthz and /statsz
	// ("dispatcher", "worker").
	Role string
	Task int
	// Epoch, when non-nil, reports the process's epoch in /healthz and
	// /statsz: a coordinator's routing epoch, a worker node's coordinator
	// session epoch.
	Epoch func() uint64
	// BeforeScrape, when non-nil, runs before each /metrics or /statsz
	// render — the coordinator uses it to refresh remote node counters
	// so one scrape shows the whole cluster.
	BeforeScrape func()
}

// Server is a running admin HTTP server.
type Server struct {
	opts  Options
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Health is the /healthz response body.
type Health struct {
	Status        string `json:"status"`
	Role          string `json:"role"`
	Task          int    `json:"task"`
	Epoch         uint64 `json:"epoch"`
	PID           int    `json:"pid"`
	GoVersion     string `json:"go_version"`
	Module        string `json:"module,omitempty"`
	ModuleVersion string `json:"module_version,omitempty"`
	VCSRevision   string `json:"vcs_revision,omitempty"`
	UptimeSeconds int64  `json:"uptime_seconds"`
}

// Serve binds addr (e.g. "127.0.0.1:0" or ":9090") and serves the admin
// endpoints until Close. It returns once the listener is bound, so
// Addr() is immediately valid.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %w", addr, err)
	}
	s := &Server{opts: opts, ln: ln, start: time.Now()}

	// A dedicated mux: pprof registers itself on http.DefaultServeMux at
	// import time, but the admin server must not inherit whatever else a
	// host process put there.
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down immediately.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) scrapePrologue() *metrics.Registry {
	if s.opts.BeforeScrape != nil {
		s.opts.BeforeScrape()
	}
	if s.opts.Registry != nil {
		return s.opts.Registry
	}
	return metrics.NewRegistry()
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	reg := s.scrapePrologue()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := reg.WritePrometheus(w); err != nil {
		// Headers are gone; nothing useful left to do.
		return
	}
}

// Statsz is the /statsz response body: the same identity block as
// /healthz plus every registry series as JSON.
type Statsz struct {
	Role   string               `json:"role"`
	Task   int                  `json:"task"`
	Epoch  uint64               `json:"epoch"`
	Series []metrics.JSONSeries `json:"series"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	reg := s.scrapePrologue()
	body := Statsz{Role: s.opts.Role, Task: s.opts.Task, Epoch: s.epoch(), Series: reg.Gather()}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func (s *Server) epoch() uint64 {
	if s.opts.Epoch != nil {
		return s.opts.Epoch()
	}
	return 0
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	h := Health{
		Status:        "ok",
		Role:          s.opts.Role,
		Task:          s.opts.Task,
		Epoch:         s.epoch(),
		PID:           os.Getpid(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h.Module = bi.Main.Path
		h.ModuleVersion = bi.Main.Version
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				h.VCSRevision = kv.Value
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}
