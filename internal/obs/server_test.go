package obs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

func TestServerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_hits_total", "Hits.").Add(5)
	prog := NewProgress(10)
	prog.SetPhase("warmup")
	prog.Step(4)

	s := NewServer(reg, prog)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "test_hits_total 5") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get("/metrics.json"); code != http.StatusOK ||
		!strings.Contains(body, `"test_hits_total"`) {
		t.Fatalf("/metrics.json = %d:\n%s", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	s.SetHealthCheck(func() error { return errors.New("wedged") })
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("failing /healthz = %d, want 503", code)
	}
	code, body := get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress = %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/progress must be JSON: %v", err)
	}
	if snap.Phase != "warmup" || snap.Done != 4 || snap.Total != 10 {
		t.Fatalf("progress snapshot = %+v", snap)
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline = %d, want 200", code)
	}
}

// TestServerProfileEndpoint covers the /profile endpoint in every
// format, the 404 before a profile is attached, and the index page.
func TestServerProfileEndpoint(t *testing.T) {
	s := NewServer(NewRegistry(), nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/profile"); code != http.StatusNotFound {
		t.Fatalf("/profile without a profile = %d, want 404", code)
	}
	if code, body := get("/"); code != http.StatusOK ||
		!strings.Contains(body, "/profile") || !strings.Contains(body, "/metrics") {
		t.Fatalf("index page = %d:\n%s", code, body)
	}
	if code, _ := get("/nosuch"); code != http.StatusNotFound {
		t.Fatalf("unknown path must 404")
	}

	p := NewProfile()
	p.Add(PhaseSparsePayload, ProfileCodecIndex(3), 2, 1, Trans1DV, 123.5, 4)
	s.AttachProfile(p)

	for _, tc := range []struct {
		path string
		want string
	}{
		{"/profile", "4b3s"},
		{"/profile?format=folded", "sparse-payload;4b3s"},
		{"/profile?format=json", `"total_fj"`},
		{"/profile?format=prom", "smores_profile_energy_femtojoules_total"},
		{"/profile?format=chrome", `"traceEvents"`},
	} {
		code, body := get(tc.path)
		if code != http.StatusOK || !strings.Contains(body, tc.want) {
			t.Errorf("%s = %d, missing %q:\n%s", tc.path, code, tc.want, body)
		}
	}
	// The profile also rides the main Prometheus scrape.
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "smores_profile_energy_femtojoules_total") {
		t.Errorf("/metrics = %d, missing profile family:\n%s", code, body)
	}
}

func TestServerStartAndClose(t *testing.T) {
	s := NewServer(NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" || s.Addr() == "" {
		t.Fatalf("Start must report the bound address")
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatalf("GET bound server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz on live server = %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServerCloseIsIdempotent: Close before Start and repeated Close
// are safe no-ops — defer chains and error paths may all Close.
func TestServerCloseIsIdempotent(t *testing.T) {
	s := NewServer(NewRegistry(), nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close before Start: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double Close before Start: %v", err)
	}

	s2 := NewServer(NewRegistry(), nil)
	if _, err := s2.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

// TestServerCloseDrainsInFlight: a request that is mid-response when
// Close begins gets to finish (graceful drain) — here a one-second CPU
// profile scrape — and Close returns once it has, well before the drain
// deadline.
func TestServerCloseDrainsInFlight(t *testing.T) {
	s := NewServer(NewRegistry(), nil)
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	wrote := make(chan struct{}, 1)
	trace := &httptrace.ClientTrace{WroteRequest: func(httptrace.WroteRequestInfo) {
		select {
		case wrote <- struct{}{}:
		default:
		}
	}}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
		http.MethodGet, "http://"+addr+"/debug/pprof/profile?seconds=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	type scrape struct {
		code, bytes int
		err         error
	}
	done := make(chan scrape, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		done <- scrape{code: resp.StatusCode, bytes: len(b), err: err}
	}()
	// Close while the profile is still being collected. Once the request
	// is on the wire, the pause only lets the server's accept loop take
	// the connection; from then on Shutdown waits for it.
	<-wrote
	time.Sleep(250 * time.Millisecond)
	start := time.Now()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d >= DefaultDrainTimeout {
		t.Fatalf("Close took %v — it must return once the in-flight request drains", d)
	}
	if got := <-done; got.err != nil || got.code != http.StatusOK || got.bytes == 0 {
		t.Fatalf("in-flight profile scrape was cut off: code %d, %d bytes, err %v",
			got.code, got.bytes, got.err)
	}
}

func TestProgressMath(t *testing.T) {
	p := NewProgress(8)
	p.Step(2)
	s := p.Snapshot()
	if s.Fraction != 0.25 {
		t.Fatalf("fraction = %v, want 0.25", s.Fraction)
	}
	if s.RatePerSecond <= 0 || s.ETASeconds <= 0 {
		t.Fatalf("rate/eta must be positive once work completed: %+v", s)
	}
}
