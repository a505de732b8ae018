package report

// Trace-store recording: capture the exact access streams the fleet
// runners consume into columnar stores (internal/tracestore), one store
// per application on the shard worker pool, with shard-parallel
// compression inside each store. A store recorded here replays
// byte-identically through RunApp and RunFleetApps, at any channel
// count, because the per-app seeds come from the same appSeed
// derivation the fleet runners use.

import (
	"fmt"
	"path/filepath"
	"runtime"

	"smores/internal/shard"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

// RecordOptions tunes trace-store recording.
type RecordOptions struct {
	// Accesses is the records captured per application (0 selects
	// DefaultAccesses) — matching the RunSpec.Accesses of the runs the
	// store will stand in for.
	Accesses int64
	// Seed matches RunSpec.Seed: RecordAppStore records the stream
	// OpenGenerator(p, Seed) yields; RecordFleetStores derives per-app
	// seeds exactly as the fleet runners do.
	Seed uint64
	// Shards is the shard count per store — each shard's column
	// compression runs on its own goroutine (0 selects GOMAXPROCS,
	// capped at 8).
	Shards int
	// Workers bounds concurrent app recordings on the fleet path
	// (0 selects GOMAXPROCS).
	Workers int
}

func (o RecordOptions) shards() int {
	if o.Shards > 0 {
		return o.Shards
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	return n
}

// RecordAppStore captures p's access stream — the one a RunSpec with
// this seed consumes — into a store at dir. On any error the zero
// Manifest is returned.
func RecordAppStore(p workload.Profile, dir string, opts RecordOptions) (tracestore.Manifest, error) {
	accesses := opts.Accesses
	if accesses <= 0 {
		accesses = DefaultAccesses
	}
	gen, err := workload.OpenGenerator(p, opts.Seed)
	if err != nil {
		return tracestore.Manifest{}, err
	}
	recs := make([]tracestore.Record, 0, accesses)
	for int64(len(recs)) < accesses {
		a, ok := gen.Next()
		if !ok {
			break // finite streams (replayed stores) end early
		}
		recs = append(recs, tracestore.Record{Access: a})
	}
	if err := endStream(p, gen); err != nil {
		return tracestore.Manifest{}, err
	}
	meta := tracestore.Meta{
		Name:   p.Name,
		Suite:  p.Suite,
		Source: "recorded",
		Seed:   opts.Seed,
		MSHRs:  p.MSHRs,
	}
	m, err := tracestore.WriteRecords(dir, meta, recs, opts.shards())
	if err != nil {
		return tracestore.Manifest{}, fmt.Errorf("report: recording %s: %w", p.Name, err)
	}
	return m, nil
}

// RecordFleetStores captures every fleet application's stream into
// baseDir/<app-name>, one app per pool worker. Seeds derive from the
// app's fleet position exactly as RunFleetApps derives them, so the
// stores replay the fleet's traffic verbatim. Manifests return in fleet
// order; on error the lowest-indexed failure is reported and nil
// manifests are returned (the zero-on-error contract).
func RecordFleetStores(fleet []workload.Profile, baseDir string, opts RecordOptions) ([]tracestore.Manifest, error) {
	manifests := make([]tracestore.Manifest, len(fleet))
	err := shard.RunJobs(len(fleet), opts.Workers, func(_, i int) error {
		p := fleet[i]
		appOpts := opts
		appOpts.Seed = appSeed(opts.Seed, i)
		var err error
		if manifests[i], err = RecordAppStore(p, filepath.Join(baseDir, p.Name), appOpts); err != nil {
			return fmt.Errorf("report: fleet app %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return manifests, nil
}
