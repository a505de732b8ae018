// Command smores-serve is the long-running telemetry service: it hosts
// the session registry over HTTP — POST run specs to /sessions, scrape
// or stream each session while it runs, and read the fleet-wide roll-up
// at /fleet/metrics. Simulations execute on a bounded worker pool;
// telemetry is sampled into per-session delta streams and can never
// block a simulation tick (a slow consumer costs counted snapshot
// drops, nothing else).
//
//	smores-serve -listen :9137                  # serve until SIGINT
//	smores-serve -smoke -out fleet-rollup.json  # self-test and exit
//
// The -smoke mode is the CI gate: it binds an ephemeral port, submits a
// few sessions over real HTTP, verifies every NDJSON stream reconciles
// exactly with the session's final state, verifies the fleet roll-up
// conserves the per-session totals, writes the roll-up JSON to -out,
// and exits non-zero on any violation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smores/internal/floats"
	"smores/internal/obs"
	"smores/internal/obs/session"
)

func main() {
	var (
		listen    = flag.String("listen", "127.0.0.1:9137", "listen address (use :0 for an ephemeral port)")
		workers   = flag.Int("session-workers", 0, "concurrently running sessions (0 = GOMAXPROCS)")
		sample    = flag.Duration("sample-interval", session.DefaultSampleInterval, "delta emission period per session")
		ringCap   = flag.Int("ring", session.DefaultRingCapacity, "per-session snapshot buffer capacity")
		queue     = flag.Int("queue", session.DefaultQueueDepth, "accepted-but-not-running session bound")
		retain    = flag.Int("retain", 0, "finished sessions kept individually addressable (0 = all; older ones fold into the retired roll-up)")
		retainTTL = flag.Duration("retain-ttl", 0, "additionally retire finished sessions older than this (0 = no age limit)")
		drain     = flag.Duration("drain", obs.DefaultDrainTimeout, "graceful shutdown deadline")
		smoke     = flag.Bool("smoke", false, "run the self-test against an ephemeral instance and exit")
		smokeN    = flag.Int("smoke-sessions", 3, "sessions the self-test submits")
		out       = flag.String("out", "", "smoke mode: write the fleet roll-up JSON here ('-' for stdout)")
	)
	flag.Parse()

	g := session.NewRegistry(session.Options{
		Workers:        *workers,
		SampleInterval: *sample,
		RingCapacity:   *ringCap,
		QueueDepth:     *queue,
		RetainFinished: *retain,
		RetainTTL:      *retainTTL,
	})
	svc := session.NewService(g)
	srv := obs.NewServer(g.Obs(), nil)
	srv.SetDrainTimeout(*drain)
	svc.Attach(srv)

	addr := *listen
	if *smoke {
		addr = "127.0.0.1:0"
	}
	bound, err := srv.Start(addr)
	fail(err)

	if *smoke {
		err := runSmoke("http://"+bound, *smokeN, *out)
		srv.Close()
		g.Drain()
		fail(err)
		fmt.Fprintln(os.Stderr, "smores-serve: smoke OK")
		return
	}

	fmt.Fprintf(os.Stderr, "smores-serve: listening on http://%s (POST /sessions to submit)\n", bound)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "smores-serve: draining")
	fail(srv.Close())
	g.Drain()
}

// smokeSpecs are the self-test's session mix: one per encoding policy,
// small enough to finish in seconds.
var smokeSpecs = []string{
	`{"accesses": 2000, "max_apps": 2, "seed": 101}`,
	`{"accesses": 2000, "max_apps": 2, "seed": 102, "policy": "optimized-mta"}`,
	`{"accesses": 2000, "max_apps": 2, "seed": 103, "policy": "smores"}`,
}

// runSmoke is the end-to-end self-test over real HTTP.
func runSmoke(base string, n int, out string) error {
	client := &http.Client{Timeout: 5 * time.Minute}

	// Submit n sessions (cycling the spec mix) and follow every stream.
	type followed struct {
		id    string
		state *obs.StreamState
		errc  chan error
	}
	var follows []followed
	for i := 0; i < n; i++ {
		spec := smokeSpecs[i%len(smokeSpecs)]
		resp, err := client.Post(base+"/sessions", "application/json", strings.NewReader(spec))
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return fmt.Errorf("POST /sessions = %d: %s", resp.StatusCode, body)
		}
		var info struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &info); err != nil || info.ID == "" {
			return fmt.Errorf("submit response: %v (%s)", err, body)
		}
		f := followed{id: info.ID, state: obs.NewStreamState(), errc: make(chan error, 1)}
		go func() { f.errc <- follow(client, base, f.id, f.state) }()
		follows = append(follows, f)
	}

	for _, f := range follows {
		if err := <-f.errc; err != nil {
			return fmt.Errorf("stream %s: %w", f.id, err)
		}
	}

	// Reconciliation: each reconstruction must equal the session's final
	// state — served independently by a late-join stream, which is by
	// contract a single full Reset snapshot of the finished session.
	sums := map[string]sumEntry{}
	for _, f := range follows {
		final := obs.NewStreamState()
		if err := follow(client, base, f.id, final); err != nil {
			return fmt.Errorf("late join %s: %w", f.id, err)
		}
		if !obs.EqualPoints(f.state.Points(), final.Points()) {
			return fmt.Errorf("session %s: stream reconstruction (%d points) != final state (%d points)",
				f.id, len(f.state.Points()), len(final.Points()))
		}
		if len(final.Points()) == 0 {
			return fmt.Errorf("session %s: empty final state", f.id)
		}
		for _, p := range final.Points() {
			k := pointKey(p)
			e := sums[k]
			e.point = p
			e.sum += p.Value
			sums[k] = e
		}
	}

	// Conservation: the fleet roll-up must carry exactly the summed
	// per-session values for every non-histogram counter/gauge series.
	// (Float sums may differ in the last ulp from the roll-up's ordered
	// merge only if sessions merged in a different order — the roll-up
	// merges in submission order, which is the order we summed in.)
	rollup, err := fleetJSON(client, base)
	if err != nil {
		return err
	}
	checked := 0
	for _, fam := range rollup {
		if fam.Kind == "histogram" {
			continue
		}
		for _, s := range fam.Series {
			if s.Value == nil {
				continue
			}
			k := pointKey(obs.DeltaPoint{Name: fam.Name, Labels: s.Labels})
			want, ok := sums[k]
			if !ok {
				continue // service-level families appear in per-session scrapes only via deltas
			}
			if !floats.Eq(*s.Value, want.sum) {
				return fmt.Errorf("fleet %s%v = %v, per-session sum %v — roll-up does not conserve",
					fam.Name, s.Labels, *s.Value, want.sum)
			}
			checked++
		}
	}
	if checked == 0 {
		return fmt.Errorf("no fleet series reconciled")
	}
	fmt.Fprintf(os.Stderr, "smores-serve: %d sessions streamed, %d fleet series conserved\n",
		len(follows), checked)

	if out == "" {
		return nil
	}
	raw, err := getBody(client, base+"/fleet/metrics.json")
	if err != nil {
		return err
	}
	if out == "-" {
		_, err = os.Stdout.Write(raw)
		return err
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "smores-serve: wrote %s\n", out)
	return nil
}

type sumEntry struct {
	point obs.DeltaPoint
	sum   float64
}

// pointKey renders a stable identity for a (name, labels) pair.
func pointKey(p obs.DeltaPoint) string {
	b, _ := json.Marshal(p.Labels)
	return p.Name + " " + string(b)
}

// follow consumes one session's NDJSON stream into state until the
// final snapshot.
func follow(client *http.Client, base, id string, state *obs.StreamState) error {
	resp, err := client.Get(base + "/sessions/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream = %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var snap obs.DeltaSnapshot
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			return err
		}
		if !state.Apply(snap) {
			return fmt.Errorf("sequence gap: snapshot %d after %d", snap.Seq, state.Seq())
		}
		if snap.Final {
			return nil
		}
	}
	return fmt.Errorf("stream ended without a final snapshot: %v", sc.Err())
}

type fleetFamily struct {
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Series []struct {
		Labels map[string]string `json:"labels"`
		Value  *float64          `json:"value"`
	} `json:"series"`
}

func fleetJSON(client *http.Client, base string) ([]fleetFamily, error) {
	raw, err := getBody(client, base+"/fleet/metrics.json")
	if err != nil {
		return nil, err
	}
	var fams []fleetFamily
	if err := json.Unmarshal(raw, &fams); err != nil {
		return nil, fmt.Errorf("fleet JSON: %w", err)
	}
	return fams, nil
}

func getBody(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s = %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "smores-serve:", err)
		os.Exit(1)
	}
}
