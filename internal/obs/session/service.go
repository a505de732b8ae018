package session

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"

	"smores/internal/obs"
	"smores/internal/report"
)

// Service is the HTTP face of a session registry. It layers the session
// API over an obs.Server's base telemetry mux:
//
//	POST /sessions                submit a RunSpecJSON, get {"id": ...}
//	GET  /sessions                session listing (states, seeds, specs)
//	GET  /sessions/{id}           one session's Info
//	GET  /sessions/{id}/metrics   per-session Prometheus scrape
//	GET  /sessions/{id}/metrics.json
//	GET  /sessions/{id}/progress  per-session progress/ETA JSON
//	GET  /sessions/{id}/profile   per-session energy attribution
//	GET  /sessions/{id}/stream    NDJSON delta-snapshot stream
//	GET  /fleet/metrics           roll-up merged across all sessions
//	GET  /fleet/metrics.json
//	GET  /fleet/profile           roll-up energy attribution
//
// Per-session scrape endpoints are the ordinary obs.Server handler
// mounted under the session's prefix, so a per-session scrape is
// byte-compatible with scraping a standalone run.
type Service struct {
	reg *Registry

	mu       sync.Mutex
	handlers map[string]http.Handler // per-session mounted obs handlers
	srv      *obs.Server             // set by Attach; streams watch its drain
}

// NewService wraps a registry. Retired sessions drop out of the
// per-session handler cache via the registry's evict hook (the hook runs
// under the registry lock; the service lock nests inside it and nothing
// takes them in the reverse order).
func NewService(reg *Registry) *Service {
	s := &Service{reg: reg, handlers: make(map[string]http.Handler)}
	reg.AddEvictHook(func(sess *Session) {
		s.mu.Lock()
		delete(s.handlers, sess.ID())
		s.mu.Unlock()
	})
	return s
}

// Attach mounts the service on an obs.Server: the server keeps its base
// endpoints (/metrics over the service-level registry, /healthz, pprof),
// gains the session API, and renders the live session index on its
// landing page. Streams terminate promptly when the server drains.
func (s *Service) Attach(srv *obs.Server) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.srv = srv
	s.mu.Unlock()
	srv.SetHandler(s.Handler(srv.Handler()))
	srv.SetIndexExtra(s.indexExtra)
}

// Handler builds the service mux over a base handler (the obs.Server
// base mux; nil falls back to a bare 404 for unknown paths).
func (s *Service) Handler(base http.Handler) http.Handler {
	if s == nil {
		return http.NotFoundHandler()
	}
	if base == nil {
		base = http.NotFoundHandler()
	}
	mux := http.NewServeMux()
	mux.Handle("/", base)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/sessions/", s.handleSession)
	mux.HandleFunc("/fleet/metrics", s.handleFleetMetrics(false))
	mux.HandleFunc("/fleet/metrics.json", s.handleFleetMetrics(true))
	mux.HandleFunc("/fleet/profile", s.handleFleetProfile)
	return mux
}

func (s *Service) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		spec, err := report.ParseRunSpecJSON(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sess, err := s.reg.Submit(spec)
		if err != nil {
			status := http.StatusBadRequest
			if strings.Contains(err.Error(), "queue full") ||
				strings.Contains(err.Error(), "shut down") {
				status = http.StatusServiceUnavailable
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		writeJSON(w, sess.Info())
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, s.reg.Infos())
	default:
		http.Error(w, "use GET (list) or POST (submit)", http.StatusMethodNotAllowed)
	}
}

// handleSession routes /sessions/{id}[/<endpoint>].
func (s *Service) handleSession(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	sess, ok := s.reg.Get(id)
	if !ok {
		http.Error(w, fmt.Sprintf("no session %q", id), http.StatusNotFound)
		return
	}
	switch sub {
	case "":
		if r.Method == http.MethodDelete {
			switch err := s.reg.Retire(id); err {
			case nil:
				w.WriteHeader(http.StatusNoContent)
			case ErrSessionActive:
				http.Error(w, err.Error(), http.StatusConflict)
			case ErrNoSession:
				http.Error(w, err.Error(), http.StatusNotFound)
			default:
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		writeJSON(w, sess.Info())
	case "stream":
		s.stream(w, r, sess)
	default:
		// Everything else is the standard obs surface, mounted at the
		// session's prefix.
		s.sessionHandler(sess).ServeHTTP(w, r)
	}
}

// sessionHandler lazily builds (and caches) the per-session obs.Server
// handler, stripped of the session prefix.
func (s *Service) sessionHandler(sess *Session) http.Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h, ok := s.handlers[sess.ID()]; ok {
		return h
	}
	srv := obs.NewServer(sess.Registry(), sess.Progress())
	srv.AttachProfile(sess.Profile())
	h := http.StripPrefix("/sessions/"+sess.ID(), srv.Handler())
	s.handlers[sess.ID()] = h
	return h
}

// profileLine is the wire shape of a profile stream line: the profile
// snapshot nested under "profile" so counter lines (flat, unchanged from
// before profile streaming existed) stay backward compatible. Followers
// unmarshal every line into obs.StreamLine and discriminate on whether
// Profile is set.
type profileLine struct {
	Session string                    `json:"session,omitempty"`
	Profile *obs.ProfileDeltaSnapshot `json:"profile"`
}

// stream serves the NDJSON delta stream: one full Reset snapshot on
// join, then every subsequent delta in sequence. A consumer that falls
// behind the ring's drop-oldest window is resynced with a fresh full
// snapshot (never silently gapped), and the stream ends with the
// session's Final snapshot. The consumer applies each line to an
// obs.StreamState; at every point its reconstruction equals a full
// scrape at the same instant.
//
// With ?include=profile the stream interleaves energy-profile delta
// lines (profileLine wrapper, independent sequence space) with the
// counter lines; the profile stream obeys the same join/resync/Final
// protocol against an obs.ProfileStreamState, and the session's profile
// Final is always delivered before the stream terminates.
func (s *Service) stream(w http.ResponseWriter, r *http.Request, sess *Session) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	includeProfile := strings.Contains(r.URL.Query().Get("include"), "profile")
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	draining := srv.Draining()
	if draining == nil {
		draining = make(chan struct{})
	}

	send := func(snap obs.DeltaSnapshot) bool {
		if err := enc.Encode(snap); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	sendProfile := func(psnap obs.ProfileDeltaSnapshot) bool {
		if err := enc.Encode(profileLine{Session: psnap.Session, Profile: &psnap}); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	full := sess.Full()
	if !send(full) {
		return
	}
	seq := full.Seq
	var pseq uint64
	pdone := !includeProfile // "profile side finished" is vacuous without it
	if includeProfile {
		pfull := sess.FullProfile()
		if !sendProfile(pfull) {
			return
		}
		pseq = pfull.Seq
		pdone = pfull.Final
	}
	// closeOutProfile delivers the final profile state when the counter
	// Final arrives with the profile side still open (the follower
	// resynced past the profile Final in the ring, or joined a session
	// whose profile never emitted).
	closeOutProfile := func() {
		if !pdone {
			sendProfile(sess.FullProfile())
		}
	}
	if full.Final {
		closeOutProfile()
		return
	}
	ring := sess.Ring()
	var pos uint64
	for {
		// Take the wakeup channel before polling: a push that lands
		// between the poll and the park closes exactly this channel.
		wait := ring.Wait()
		items, next, _ := ring.Since(pos)
		pos = next
		for _, it := range items {
			if it.Profile != nil {
				if !includeProfile || pdone {
					continue
				}
				psnap := *it.Profile
				switch {
				case psnap.Seq <= pseq && !psnap.Final:
					// Already covered by the join/resync snapshot.
					continue
				case psnap.Reset || psnap.Seq == pseq+1:
					if !sendProfile(psnap) {
						return
					}
					pseq, pdone = psnap.Seq, psnap.Final
				default:
					// Gap on the profile sequence: resync from the full
					// profile state (which carries Final once finalized —
					// the profile side then closes, but the stream runs on
					// until the counter Final).
					pfull := sess.FullProfile()
					if !sendProfile(pfull) {
						return
					}
					pseq, pdone = pfull.Seq, pfull.Final
				}
				continue
			}
			snap := it.Counters
			switch {
			case snap.Seq <= seq && !snap.Final:
				// Already covered by the join/resync snapshot.
				continue
			case snap.Reset || snap.Seq == seq+1:
				if !send(snap) {
					return
				}
				seq = snap.Seq
			default:
				// Gap: the ring evicted snapshots we never saw. Resync
				// with the current full state, which is always at least
				// as new as anything evicted.
				full := sess.Full()
				if !send(full) {
					return
				}
				if full.Final {
					closeOutProfile()
					return
				}
				seq = full.Seq
			}
			if snap.Final {
				closeOutProfile()
				return
			}
		}
		if len(items) > 0 {
			continue // more may have landed while we were sending
		}
		if ring.Closed() {
			// Drained a closed ring without a Final line (the consumer
			// resynced past it): close out with the final full states.
			closeOutProfile()
			send(sess.Full())
			return
		}
		select {
		case <-wait:
		case <-draining:
			return
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Service) handleFleetMetrics(asJSON bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		merged, err := s.reg.FleetRegistry()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if asJSON || r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = obs.WriteJSON(w, merged)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, merged)
		_ = obs.WriteProfilePrometheus(w, s.reg.FleetProfile().Snapshot())
	}
}

func (s *Service) handleFleetProfile(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.FleetProfile().Snapshot()
	switch r.URL.Query().Get("format") {
	case "json":
		w.Header().Set("Content-Type", "application/json")
		_ = obs.WriteProfileJSON(w, snap)
	case "prom":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WriteProfilePrometheus(w, snap)
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obs.RenderProfile(snap, 0))
	}
}

// indexExtra renders the live session index into the obs.Server landing
// page (between its endpoint list and the closing tags). Rows are capped
// and newest-first — on a long-lived service the interesting sessions
// are the recent ones, and the retained/retired split shows where the
// rest went.
func (s *Service) indexExtra() string {
	infos := s.reg.Infos()
	retired := s.reg.Retired()
	counts := map[string]int{}
	for _, in := range infos {
		counts[in.State]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "<h2>sessions</h2><p>%d retained · %d retired · %d total",
		len(infos), retired.Sessions, int64(len(infos))+retired.Sessions)
	states := make([]string, 0, len(counts))
	for st := range counts {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(&b, " · %d %s", counts[st], st)
	}
	b.WriteString(`</p><ul>
<li><a href="/sessions">/sessions</a> — session listing (POST a run spec here to submit)</li>
<li><a href="/fleet/metrics">/fleet/metrics</a> — roll-up merged across all sessions (incl. retired)</li>
<li><a href="/fleet/profile">/fleet/profile</a> — roll-up energy attribution</li>
</ul><ul>`)
	const maxListed = 20
	for i := len(infos) - 1; i >= 0; i-- {
		if shown := len(infos) - 1 - i; shown == maxListed {
			fmt.Fprintf(&b, "<li>… %d more</li>", i+1)
			break
		}
		in := infos[i]
		fmt.Fprintf(&b,
			`<li><a href="/sessions/%s">%s</a> [%s] %s seed=%d — <a href="/sessions/%s/metrics">metrics</a> <a href="/sessions/%s/stream">stream</a></li>`,
			in.ID, in.ID, in.State, in.Label, in.Seed, in.ID, in.ID)
	}
	b.WriteString("</ul>")
	return b.String()
}

func writeJSON(w http.ResponseWriter, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
