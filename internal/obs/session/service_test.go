package session

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"smores/internal/obs"
)

func newTestService(t *testing.T, opts Options) (*Registry, *obs.Server, string) {
	t.Helper()
	if opts.SampleInterval == 0 {
		opts.SampleInterval = time.Millisecond
	}
	g := NewRegistry(opts)
	svc := NewService(g)
	srv := obs.NewServer(g.Obs(), nil)
	svc.Attach(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		g.Drain()
	})
	return g, srv, "http://" + addr
}

func submit(t *testing.T, base, body string) Info {
	t.Helper()
	resp, err := http.Post(base+"/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sessions = %d: %s", resp.StatusCode, b)
	}
	var info Info
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatalf("submit response is not an Info: %v\n%s", err, b)
	}
	return info
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func waitDone(t *testing.T, g *Registry, id string) *Session {
	t.Helper()
	s, ok := g.Get(id)
	if !ok {
		t.Fatalf("no session %s", id)
	}
	select {
	case <-s.Done():
	case <-time.After(120 * time.Second):
		t.Fatalf("session %s did not finish", id)
	}
	return s
}

func TestServiceSubmitAndScrape(t *testing.T) {
	g, _, base := newTestService(t, Options{Workers: 2})

	info := submit(t, base, `{"accesses": 300, "max_apps": 2, "seed": 5, "policy": "smores"}`)
	if info.ID == "" || info.Seed != 5 || info.Label != "smores/variable/exhaustive" {
		t.Fatalf("info = %+v", info)
	}
	sess := waitDone(t, g, info.ID)
	if st, err := sess.State(); st != StateDone || err != nil {
		t.Fatalf("state = %v %v", st, err)
	}

	// Listing shows the session as done with its seed.
	code, body := get(t, base+"/sessions")
	if code != http.StatusOK {
		t.Fatalf("GET /sessions = %d", code)
	}
	var infos []Info
	if err := json.Unmarshal([]byte(body), &infos); err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].State != "done" || infos[0].Seed != 5 {
		t.Fatalf("listing = %+v", infos)
	}

	// Per-session scrapes: Prometheus, JSON, progress, profile, info.
	if code, body := get(t, base+"/sessions/"+info.ID+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "smores_gpu_accesses_total") {
		t.Fatalf("session /metrics = %d:\n%.400s", code, body)
	}
	if code, body := get(t, base+"/sessions/"+info.ID+"/metrics.json"); code != http.StatusOK ||
		!strings.Contains(body, `"smores_gpu_accesses_total"`) {
		t.Fatalf("session /metrics.json = %d", code)
	}
	if code, body := get(t, base+"/sessions/"+info.ID+"/progress"); code != http.StatusOK ||
		!strings.Contains(body, `"fraction": 1`) {
		t.Fatalf("session /progress = %d:\n%s", code, body)
	}
	if code, body := get(t, base+"/sessions/"+info.ID+"/profile"); code != http.StatusOK ||
		body == "" {
		t.Fatalf("session /profile = %d", code)
	}
	if code, body := get(t, base+"/sessions/"+info.ID); code != http.StatusOK ||
		!strings.Contains(body, `"state": "done"`) {
		t.Fatalf("session info = %d:\n%s", code, body)
	}

	// Unknown session and bad specs.
	if code, _ := get(t, base+"/sessions/s-999999/metrics"); code != http.StatusNotFound {
		t.Fatalf("unknown session = %d, want 404", code)
	}
	resp, err := http.Post(base+"/sessions", "application/json",
		strings.NewReader(`{"policy": "pam5"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400", resp.StatusCode)
	}

	// The landing page carries the session index.
	if code, body := get(t, base+"/"); code != http.StatusOK ||
		!strings.Contains(body, "<h2>sessions</h2>") || !strings.Contains(body, info.ID) {
		t.Fatalf("index = %d:\n%s", code, body)
	}
	// The base obs endpoints still work and serve the service registry.
	if code, body := get(t, base+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "smores_sessions_submitted_total 1") {
		t.Fatalf("service /metrics = %d:\n%.400s", code, body)
	}
}

// TestServiceStreamReconciles drives the headline stream contract over
// real HTTP: applying every NDJSON line to a StreamState yields, at the
// final line, exactly the state of a full scrape of the finished
// session.
func TestServiceStreamReconciles(t *testing.T) {
	g, _, base := newTestService(t, Options{Workers: 1})
	info := submit(t, base, `{"accesses": 4000, "max_apps": 2, "seed": 9}`)

	resp, err := http.Get(base + "/sessions/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}

	rx := obs.NewStreamState()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines int
	var sawFinal bool
	for sc.Scan() {
		var snap obs.DeltaSnapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("line %d is not a snapshot: %v", lines, err)
		}
		if snap.Session != info.ID {
			t.Fatalf("line %d tagged %q, want %q", lines, snap.Session, info.ID)
		}
		if !rx.Apply(snap) {
			t.Fatalf("line %d (seq %d) does not follow seq %d — service let a gap through",
				lines, snap.Seq, rx.Seq())
		}
		lines++
		if snap.Final {
			sawFinal = true
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawFinal {
		t.Fatalf("stream ended after %d lines without a final snapshot", lines)
	}

	sess := waitDone(t, g, info.ID)
	want := sess.Full()
	if !obs.EqualPoints(rx.Points(), want.Points) {
		t.Fatalf("reconstruction (%d points) != final state (%d points)",
			len(rx.Points()), len(want.Points))
	}
	// And the final state matches a fresh full scrape of the registry.
	enc := obs.NewDeltaEncoder(sess.Registry())
	enc.Next()
	if !obs.EqualPoints(rx.Points(), enc.Full().Points) {
		t.Fatalf("reconstruction != fresh registry scrape")
	}
}

// TestServiceStreamLateJoin joins after completion: the stream is a
// single final Reset snapshot carrying the complete state.
func TestServiceStreamLateJoin(t *testing.T) {
	g, _, base := newTestService(t, Options{Workers: 1})
	info := submit(t, base, `{"accesses": 300, "max_apps": 1, "seed": 2}`)
	sess := waitDone(t, g, info.ID)

	code, body := get(t, base+"/sessions/"+info.ID+"/stream")
	if code != http.StatusOK {
		t.Fatalf("stream = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("late join streamed %d lines, want 1 final snapshot", len(lines))
	}
	var snap obs.DeltaSnapshot
	if err := json.Unmarshal([]byte(lines[0]), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Final || !snap.Reset {
		t.Fatalf("late-join snapshot = final=%v reset=%v", snap.Final, snap.Reset)
	}
	rx := obs.NewStreamState()
	if !rx.Apply(snap) {
		t.Fatalf("final snapshot did not apply")
	}
	if !obs.EqualPoints(rx.Points(), sess.Full().Points) {
		t.Fatalf("late-join state != final state")
	}
}

// TestServiceStreamResyncAfterDrop forces ring eviction under a stalled
// consumer (tiny ring, fast sampling) and checks the stream heals with a
// Reset snapshot instead of handing the consumer a sequence gap, and
// that the drops were counted.
func TestServiceStreamResyncAfterDrop(t *testing.T) {
	g, _, base := newTestService(t, Options{
		Workers:        1,
		RingCapacity:   2,
		SampleInterval: 500 * time.Microsecond,
	})
	info := submit(t, base, `{"accesses": 12000, "max_apps": 2, "seed": 4}`)

	// Join immediately, then stall: read nothing until the run is over.
	resp, err := http.Get(base + "/sessions/" + info.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sess := waitDone(t, g, info.ID)

	rx := obs.NewStreamState()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var snap obs.DeltaSnapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if !rx.Apply(snap) {
			t.Fatalf("seq gap reached the consumer: snap %d after %d", snap.Seq, rx.Seq())
		}
		if snap.Final {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !obs.EqualPoints(rx.Points(), sess.Full().Points) {
		t.Fatalf("post-resync reconstruction != final state")
	}
	if sess.Ring().Dropped() == 0 {
		t.Skipf("run too fast to force eviction (dropped=0) — resync path untested here")
	}
}

// TestServiceFleetRollup checks /fleet/metrics totals are exactly the
// sum of the per-session final snapshots (conservation over HTTP).
func TestServiceFleetRollup(t *testing.T) {
	g, _, base := newTestService(t, Options{Workers: 2})
	var ids []string
	for _, body := range []string{
		`{"accesses": 300, "max_apps": 2, "seed": 21}`,
		`{"accesses": 300, "max_apps": 2, "seed": 22, "policy": "smores"}`,
		`{"accesses": 300, "max_apps": 1, "seed": 23, "policy": "optimized-mta"}`,
	} {
		ids = append(ids, submit(t, base, body).ID)
	}
	for _, id := range ids {
		waitDone(t, g, id)
	}

	code, body := get(t, base+"/fleet/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/fleet/metrics.json = %d", code)
	}
	var doc []struct {
		Name   string `json:"name"`
		Series []struct {
			Labels map[string]string `json:"labels"`
			Value  float64           `json:"value"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("fleet JSON: %v", err)
	}
	checked := 0
	for _, fam := range doc {
		if fam.Name != "smores_gpu_accesses_total" && fam.Name != "smores_bus_wire_energy_femtojoules_total" {
			continue
		}
		for _, series := range fam.Series {
			var labels []obs.Label
			for k, v := range series.Labels {
				labels = append(labels, obs.L(k, v))
			}
			var want float64
			for _, id := range ids {
				s, _ := g.Get(id)
				want += s.Registry().Value(fam.Name, labels...)
			}
			if series.Value != want {
				t.Fatalf("%s%v: fleet %v != sum %v", fam.Name, series.Labels, series.Value, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatalf("no fleet series checked")
	}
	if code, body := get(t, base+"/fleet/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "smores_gpu_accesses_total") {
		t.Fatalf("/fleet/metrics = %d", code)
	}
	if code, _ := get(t, base+"/fleet/profile"); code != http.StatusOK {
		t.Fatalf("/fleet/profile = %d", code)
	}
}

// TestServiceDeleteSession: DELETE /sessions/{id} retires a finished
// session (404 afterwards), refuses active ones with 409, and the fleet
// roll-up is byte-identical before and after — retirement moves data
// into the accumulator, it never loses it.
func TestServiceDeleteSession(t *testing.T) {
	g, _, base := newTestService(t, Options{Workers: 1})
	info := submit(t, base, `{"accesses": 300, "max_apps": 2, "seed": 31}`)
	waitDone(t, g, info.ID)

	_, before := get(t, base+"/fleet/metrics.json")

	req, _ := http.NewRequest(http.MethodDelete, base+"/sessions/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	if code, _ := get(t, base+"/sessions/"+info.ID); code != http.StatusNotFound {
		t.Fatalf("GET retired session = %d, want 404", code)
	}
	if code, _ := get(t, base+"/sessions/"+info.ID+"/metrics"); code != http.StatusNotFound {
		t.Fatalf("retired session /metrics = %d, want 404", code)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double DELETE = %d, want 404", resp.StatusCode)
	}

	// Conservation over HTTP: the roll-up before retirement (empty
	// accumulator + one live session) equals the roll-up after (one
	// retired session) byte for byte.
	_, after := get(t, base+"/fleet/metrics.json")
	if before != after {
		t.Fatalf("fleet roll-up changed across retirement:\nbefore %.300s\nafter  %.300s", before, after)
	}

	// An active (never-run, directly inserted) session refuses DELETE.
	hang := newSession("s-hang", tinySpec(1), 1, 4)
	g.mu.Lock()
	g.sessions[hang.id] = hang
	g.order = append(g.order, hang.id)
	g.mu.Unlock()
	req, _ = http.NewRequest(http.MethodDelete, base+"/sessions/s-hang", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE active = %d, want 409", resp.StatusCode)
	}

	// The service gauges on the base /metrics reflect the retirement.
	if code, body := get(t, base+"/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "smores_sessions_retired_total 1") ||
		!strings.Contains(body, "smores_sessions_retained 0") {
		t.Fatalf("service /metrics after retire = %d:\n%.600s", code, body)
	}
}

// TestServiceStreamWithProfile: a ?include=profile follower interleaves
// counter and profile delta lines; applying each kind to its stream
// state reconstructs, at the final lines, exactly the session's final
// counters and energy-profile cells — the late-join /profile scrape
// agrees cell for cell.
func TestServiceStreamWithProfile(t *testing.T) {
	g, _, base := newTestService(t, Options{Workers: 1})
	info := submit(t, base, `{"accesses": 4000, "max_apps": 2, "seed": 13}`)

	resp, err := http.Get(base + "/sessions/" + info.ID + "/stream?include=profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	rx := obs.NewStreamState()
	prx := obs.NewProfileStreamState()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 4<<20)
	var sawProfileFinal, sawCounterFinal bool
	for sc.Scan() {
		var line obs.StreamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad stream line: %v\n%s", err, sc.Bytes())
		}
		if line.Profile != nil {
			if !prx.Apply(*line.Profile) {
				t.Fatalf("profile seq gap: %d after %d", line.Profile.Seq, prx.Seq())
			}
			if line.Profile.Final {
				sawProfileFinal = true
			}
			continue
		}
		// Counter lines stay flat (no "profile" key) for back-compat with
		// pre-profile followers.
		if strings.Contains(string(sc.Bytes()), `"profile"`) {
			t.Fatalf("counter line carries a profile key: %s", sc.Bytes())
		}
		if !rx.Apply(line.DeltaSnapshot) {
			t.Fatalf("counter seq gap: %d after %d", line.Seq, rx.Seq())
		}
		if line.Final {
			sawCounterFinal = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawCounterFinal || !sawProfileFinal {
		t.Fatalf("stream ended without finals: counters=%v profile=%v", sawCounterFinal, sawProfileFinal)
	}

	sess := waitDone(t, g, info.ID)
	if !obs.EqualPoints(rx.Points(), sess.Full().Points) {
		t.Fatalf("counter reconstruction != final state")
	}
	want := obs.ProfileDeltaCells(sess.Profile().Snapshot())
	if len(want) == 0 {
		t.Fatalf("session profile is empty")
	}
	if !obs.EqualCells(prx.Cells(), want) {
		t.Fatalf("profile reconstruction (%d cells) != session profile (%d cells)",
			len(prx.Cells()), len(want))
	}

	// The late-join scrape agrees with the streamed reconstruction.
	code, body := get(t, base+"/sessions/"+info.ID+"/profile?format=json")
	if code != http.StatusOK {
		t.Fatalf("/profile = %d", code)
	}
	scraped, err := obs.ParseProfileJSON(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !obs.EqualCells(prx.Cells(), obs.ProfileDeltaCells(scraped.Snapshot())) {
		t.Fatalf("streamed profile != late-join /profile scrape")
	}

	// A late ?include=profile join on the finished session gets both
	// final Reset snapshots immediately.
	code, body = get(t, base+"/sessions/"+info.ID+"/stream?include=profile")
	if code != http.StatusOK {
		t.Fatalf("late stream = %d", code)
	}
	lateRx := obs.NewProfileStreamState()
	var lateLines int
	for _, ln := range strings.Split(strings.TrimSpace(body), "\n") {
		var line obs.StreamLine
		if err := json.Unmarshal([]byte(ln), &line); err != nil {
			t.Fatal(err)
		}
		if line.Profile != nil {
			if !lateRx.Apply(*line.Profile) {
				t.Fatalf("late profile line did not apply")
			}
		}
		lateLines++
	}
	if lateLines != 2 {
		t.Fatalf("late join streamed %d lines, want 2 (counter + profile finals)", lateLines)
	}
	if !obs.EqualCells(lateRx.Cells(), want) {
		t.Fatalf("late-join profile reconstruction diverged")
	}

	// Without include=profile the same finished session streams only the
	// single flat counter final — the pre-profile wire format.
	if _, body := get(t, base+"/sessions/"+info.ID+"/stream"); strings.Contains(body, `"profile"`) ||
		len(strings.Split(strings.TrimSpace(body), "\n")) != 1 {
		t.Fatalf("plain stream changed shape:\n%s", body)
	}
}

// TestServiceStreamEndsOnShutdown: an open stream terminates promptly
// when the server closes (the obs.Server drain contract, end to end).
func TestServiceStreamEndsOnShutdown(t *testing.T) {
	g, srv, base := newTestService(t, Options{Workers: 1, SampleInterval: time.Hour})
	// A session that never finishes sampling within the test: stream it,
	// then shut the server down.
	info := submit(t, base, `{"accesses": 300, "max_apps": 1, "seed": 6}`)
	waitDone(t, g, info.ID)
	_ = info

	// Open a stream on a session that never finalizes: fake one queued
	// (the ring stays open because no worker will run it — workers are
	// busy is hard to stage; instead use a directly-built session).
	s := newSession("s-hang", tinySpec(1), 1, 8)
	g.mu.Lock()
	g.sessions[s.id] = s
	g.order = append(g.order, s.id)
	g.mu.Unlock()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/sessions/s-hang/stream")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the stream attach
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("stream errored on shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown with open stream took %v", d)
	}
}
