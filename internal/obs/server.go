package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server exposes live telemetry over HTTP:
//
//	/metrics       Prometheus text exposition of the registry
//	/metrics.json  the same registry as structured JSON
//	/healthz       liveness: 200 "ok" (or the registered check's error)
//	/progress      JSON progress snapshot with rate and ETA
//	/debug/pprof/  the standard Go profiling endpoints
//
// Start with an addr of ":0" to bind an ephemeral port; Addr reports
// the bound address.
type Server struct {
	reg    *Registry
	prog   *Progress
	prof   *Profile
	health func() error

	srv  *http.Server
	lis  net.Listener
	done chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// DefaultDrainTimeout bounds how long Close waits for in-flight
// handlers before force-closing their connections.
const DefaultDrainTimeout = 5 * time.Second

// NewServer builds a telemetry server over a registry and an optional
// progress tracker (nil is fine for both).
func NewServer(reg *Registry, prog *Progress) *Server {
	return &Server{reg: reg, prog: prog}
}

// SetHealthCheck installs a liveness probe; a non-nil error turns
// /healthz into a 503 carrying the error text.
func (s *Server) SetHealthCheck(f func() error) {
	if s == nil {
		return
	}
	s.health = f
}

// AttachProfile serves the energy-attribution profile at /profile
// (text roll-up by default; ?format=folded|json|prom|chrome selects the
// machine formats). Call before Handler/Start.
func (s *Server) AttachProfile(p *Profile) {
	if s == nil {
		return
	}
	s.prof = p
}

// Handler returns the telemetry mux (usable without Start, e.g. in
// tests or when embedding into an existing server).
func (s *Server) Handler() http.Handler {
	if s == nil {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, s.reg); err != nil {
			// Headers are gone; nothing recoverable.
			return
		}
		if s.prof != nil {
			_ = WriteProfilePrometheus(w, s.prof.Snapshot())
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = WriteJSON(w, s.reg)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if s.health != nil {
			if err := s.health(); err != nil {
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.prog.Snapshot())
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		if s.prof == nil {
			http.Error(w, "no energy profile attached (run with profiling enabled)",
				http.StatusNotFound)
			return
		}
		snap := s.prof.Snapshot()
		switch r.URL.Query().Get("format") {
		case "folded":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_ = WriteProfileFolded(w, snap)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			_ = WriteProfileJSON(w, snap)
		case "prom":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = WriteProfilePrometheus(w, snap)
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			_ = WriteProfileChrome(w, snap)
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprint(w, RenderProfile(snap, 0))
			fmt.Fprintln(w, "\nformats: /profile?format=folded|json|prom|chrome")
		}
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		fmt.Fprint(w, indexPage)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// indexPage is the landing page served at "/", linking every endpoint.
const indexPage = `<!doctype html><html><head><title>smores telemetry</title></head><body>
<h1>smores telemetry</h1><ul>
<li><a href="/metrics">/metrics</a> — Prometheus text exposition</li>
<li><a href="/metrics.json">/metrics.json</a> — registry as JSON</li>
<li><a href="/profile">/profile</a> — energy-attribution profile (add <code>?format=folded|json|prom|chrome</code>)</li>
<li><a href="/progress">/progress</a> — run progress with rate and ETA</li>
<li><a href="/healthz">/healthz</a> — liveness</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — Go profiling</li>
</ul></body></html>
`

// Start binds addr and serves in a background goroutine, returning the
// bound address (useful with ":0").
func (s *Server) Start(addr string) (string, error) {
	if s == nil {
		return "", nil
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(lis)
	}()
	return lis.Addr().String(), nil
}

// Addr returns the bound address ("" before Start).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the server gracefully: it gives in-flight handlers
// DefaultDrainTimeout to finish (http.Server.Shutdown), then
// force-closes whatever remains. Close before Start and repeated Close
// are safe no-ops (the first result is returned again), so defer chains
// and error paths can all Close unconditionally.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		if s.srv == nil {
			return // Close before Start: nothing is listening
		}
		ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
		defer cancel()
		if err := s.srv.Shutdown(ctx); err != nil {
			// Drain deadline expired with handlers still running: cut
			// them. The server still stops — a stuck client must not
			// wedge shutdown — so only a failing force-close is an error.
			s.closeErr = s.srv.Close()
		}
		<-s.done
	})
	return s.closeErr
}
