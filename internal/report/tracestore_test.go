package report

// Differential gate for trace-store replay: a store recorded from a
// fleet app must drive every policy byte-identically to the live
// generator — same bus/controller statistics, same gap histograms, same
// energy-profiler cells — through both the single-channel runner and
// the shard-per-goroutine multi-channel engine at several worker
// counts. This is the contract that makes recorded (and imported) traces
// first-class fleet members.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"smores/internal/gpu"
	"smores/internal/obs"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

// recordMember records p's stream for the given seed/accesses into a
// temp store and registers it as a trace-backed fleet member under a
// distinct name. The registration is torn down with the test.
func recordMember(t *testing.T, p workload.Profile, accesses int64, seed uint64) workload.Profile {
	t.Helper()
	rec := p
	rec.Name = p.Name + "-replay"
	dir := filepath.Join(t.TempDir(), rec.Name)
	if _, err := RecordAppStore(rec, dir, RecordOptions{Accesses: accesses, Seed: seed, Shards: 2}); err != nil {
		t.Fatal(err)
	}
	sp, err := tracestore.RegisterFleetMember(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.UnregisterExternal(sp.Name) })
	return sp
}

// assertSameRun fails unless the two results carry identical simulation
// statistics (everything except the App profile, which differs by name).
func assertSameRun(t *testing.T, label string, live, replay AppResult) {
	t.Helper()
	if live.Label != replay.Label {
		t.Fatalf("%s: labels differ: %q vs %q", label, live.Label, replay.Label)
	}
	if !replay.Bus.Equal(live.Bus) {
		t.Errorf("%s: bus stats diverged:\nlive   %+v\nreplay %+v", label, live.Bus, replay.Bus)
	}
	if !replay.Ctrl.Equal(live.Ctrl) {
		t.Errorf("%s: controller stats diverged:\nlive   %+v\nreplay %+v", label, live.Ctrl, replay.Ctrl)
	}
	if !replay.ReadGaps.Equal(live.ReadGaps) || !replay.WriteGaps.Equal(live.WriteGaps) {
		t.Errorf("%s: gap histograms diverged", label)
	}
	if replay.PerBit != live.PerBit {
		t.Errorf("%s: per-bit energy diverged: %v vs %v", label, live.PerBit, replay.PerBit)
	}
	if replay.Clocks != live.Clocks || replay.Reads != live.Reads || replay.Writes != live.Writes {
		t.Errorf("%s: traffic diverged: %d/%d/%d vs %d/%d/%d", label,
			live.Clocks, live.Reads, live.Writes, replay.Clocks, replay.Reads, replay.Writes)
	}
}

// TestStoreReplayByteIdentical is the single-channel gate: one store,
// all five policies (including the LLC ablation), each compared against
// the live generator including the energy profiler's attribution cells.
func TestStoreReplayByteIdentical(t *testing.T) {
	const accesses, seed = 1500, 7
	p, _ := workload.ByName("bfs")
	sp := recordMember(t, p, accesses, seed)

	labels := []string{"baseline", "optimized", "variable", "static", "conservative"}
	for i, spec := range PolicySpecs(accesses, seed, false) {
		liveProf, replayProf := obs.NewProfile(), obs.NewProfile()

		liveSpec := spec
		liveSpec.Profile = liveProf
		live, err := RunApp(p, liveSpec)
		if err != nil {
			t.Fatal(err)
		}

		replaySpec := spec
		replaySpec.Profile = replayProf
		replay, err := RunApp(sp, replaySpec)
		if err != nil {
			t.Fatal(err)
		}

		assertSameRun(t, labels[i], live, replay)
		requireSameCells(t, labels[i]+" energy profiler", liveProf.Snapshot().Cells, replayProf.Snapshot().Cells)
	}

	// The LLC-interposed variant exercises the driver's cache path: the
	// generator stream is identical, so the filtered DRAM traffic must be
	// too.
	llcSpec := PolicySpecs(accesses, seed, true)[2]
	live, err := RunApp(p, llcSpec)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := RunApp(sp, llcSpec)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRun(t, "variable+llc", live, replay)
}

// TestStoreReplayShardedByteIdentical gates the multi-channel engine:
// the replayed store must reproduce the live generator's sharded run at
// every worker count (the engine itself is worker-count invariant, so
// any divergence is the store's fault).
func TestStoreReplayShardedByteIdentical(t *testing.T) {
	const accesses, seed, channels = 1200, 11, 4
	p, _ := workload.ByName("lulesh")
	sp := recordMember(t, p, accesses, seed)

	for _, spec := range []RunSpec{
		PolicySpecs(accesses, seed, false)[2],
		PolicySpecs(accesses, seed, false)[0],
	} {
		live, err := runChannels(p, spec, channels, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			replay, err := runChannels(sp, spec, channels, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !replay.Bus.Equal(live.Bus) {
				t.Errorf("%s workers=%d: bus stats diverged", live.Label, workers)
			}
			if !replay.Ctrl.Equal(live.Ctrl) {
				t.Errorf("%s workers=%d: controller stats diverged", live.Label, workers)
			}
			if !replay.ReadGaps.Equal(live.ReadGaps) || !replay.WriteGaps.Equal(live.WriteGaps) {
				t.Errorf("%s workers=%d: gap histograms diverged", live.Label, workers)
			}
			if replay.PerBit != live.PerBit {
				t.Errorf("%s workers=%d: per-bit diverged: %v vs %v", live.Label, workers, live.PerBit, replay.PerBit)
			}
			for ch := range live.PerChannel {
				if !replay.PerChannel[ch].Equal(live.PerChannel[ch]) {
					t.Errorf("%s workers=%d: channel %d stats diverged", live.Label, workers, ch)
				}
			}
		}
	}
}

// TestRecordFleetStores checks the fleet recorder: per-app seeds must
// match the fleet runner's derivation, so each store replays its app's
// fleet traffic verbatim, and the stores' files are the same bytes at
// every worker count, whichever goroutines' pooled compressors wrote
// them.
func TestRecordFleetStores(t *testing.T) {
	const accesses, seed = 800, 3
	fleet := workload.Fleet()[:3]
	seqBase := t.TempDir()
	if _, err := RecordFleetStores(fleet, seqBase, RecordOptions{Accesses: accesses, Seed: seed, Shards: 3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	manifests, err := RecordFleetStores(fleet, base, RecordOptions{Accesses: accesses, Seed: seed, Shards: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireSameTree(t, seqBase, base)
	if len(manifests) != len(fleet) {
		t.Fatalf("got %d manifests for %d apps", len(manifests), len(fleet))
	}
	spec := PolicySpecs(accesses, seed, false)[2]
	for i, p := range fleet {
		if manifests[i].Name != p.Name || manifests[i].Records != accesses {
			t.Fatalf("manifest %d = %q/%d records, want %q/%d", i, manifests[i].Name, manifests[i].Records, p.Name, accesses)
		}
		// The fleet runner gives app i the seed appSeed(spec.Seed, i); a
		// live run at that seed must match the store's replay.
		liveSpec := spec
		liveSpec.Seed = appSeed(seed, i)
		live, err := RunApp(p, liveSpec)
		if err != nil {
			t.Fatal(err)
		}
		// Fleet stores carry the fleet app's own name (they stand in for
		// its traffic), so RegisterFleetMember would collide; register the
		// member manually under a distinct name.
		s, err := tracestore.Open(filepath.Join(base, p.Name))
		if err != nil {
			t.Fatal(err)
		}
		sp := tracestore.FleetMember(s)
		sp.Name = p.Name + "-fleetstore"
		if err := workload.RegisterExternal(workload.External{
			Profile: sp,
			Open:    func() (gpu.Generator, error) { return s.Replayer() },
		}); err != nil {
			t.Fatal(err)
		}
		replay, err := RunApp(sp, liveSpec)
		workload.UnregisterExternal(sp.Name)
		if err != nil {
			t.Fatal(err)
		}
		assertSameRun(t, p.Name, live, replay)
	}
}

// requireSameTree fails unless the directory trees under a and b hold
// the same file names with the same bytes.
func requireSameTree(t *testing.T, a, b string) {
	t.Helper()
	files := func(root string) map[string][]byte {
		out := map[string][]byte{}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out[rel], err = os.ReadFile(path)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	fa, fb := files(a), files(b)
	if len(fa) == 0 || len(fa) != len(fb) {
		t.Fatalf("trees hold %d and %d files", len(fa), len(fb))
	}
	for name, data := range fa {
		if other, ok := fb[name]; !ok || !bytes.Equal(data, other) {
			t.Errorf("%s differs between the trees (present in both: %v)", name, ok)
		}
	}
}

// Runs close the replays they open. With the collector off, no
// finalizer closes a file for them, so ten replays of a 2-shard store
// that stop at their access budget in its first shard, then ten whose
// budget is the store's length (they never ask for the record past its
// end), then ten re-recordings of a part of it, at one channel and at
// four, must leave the process's open-file count where it was.
func TestReplaysCloseTheirFiles(t *testing.T) {
	openFiles := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(ents)
	}
	openFiles()
	const records = 3000
	p, _ := workload.ByName("bfs")
	sp := recordMember(t, p, records, 5)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	replay := func(i int, accesses int64) {
		spec := PolicySpecs(accesses, 5, false)[2]
		spec.Channels = 1 + 3*(i%2)
		if _, err := RunApp(sp, spec); err != nil {
			t.Fatal(err)
		}
	}
	replay(0, records)
	before := openFiles()
	for i := 0; i < 10; i++ {
		replay(i, records/3)
	}
	partial := openFiles()
	for i := 0; i < 10; i++ {
		replay(i, records)
	}
	full := openFiles()
	dir := t.TempDir()
	for i := 0; i < 10; i++ {
		opts := RecordOptions{Accesses: records / 3, Seed: 5, Shards: 1}
		if _, err := RecordAppStore(sp, filepath.Join(dir, fmt.Sprint(i)), opts); err != nil {
			t.Fatal(err)
		}
	}
	recorded := openFiles()
	if partial != before || full != before || recorded != before {
		t.Fatalf("open files: %d before, %d after partial replays, %d after full-budget replays, %d after re-recordings",
			before, partial, full, recorded)
	}
}

// TestRecordAppStoreShortStream documents the finite-stream contract:
// recording from a replayed store (finite) stops at the stream's end
// rather than erroring.
func TestRecordAppStoreShortStream(t *testing.T) {
	p, _ := workload.ByName("bfs")
	sp := recordMember(t, p, 100, 5)
	m, err := RecordAppStore(sp, filepath.Join(t.TempDir(), "rerecord"), RecordOptions{Accesses: 500, Seed: 5, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Records != 100 {
		t.Fatalf("re-recording a 100-record store captured %d records", m.Records)
	}
}

// TestRecordAppStoreMatchesSMTRFixture pins recording to a file the
// former flat-trace recorder wrote: testdata/bfs-2000-seed1.smtr holds
// bfs at 2000 accesses and seed 1 in SMTR v1. Importing it must yield
// exactly the records RecordAppStore captures for the same workload,
// seed and length, however many shards the recording uses.
func TestRecordAppStoreMatchesSMTRFixture(t *testing.T) {
	readStore := func(dir string) []tracestore.Record {
		t.Helper()
		s, err := tracestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := tracestore.ReadAll(s, tracestore.AccessFields)
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	f, err := os.Open(filepath.Join("testdata", "bfs-2000-seed1.smtr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fixture := filepath.Join(t.TempDir(), "fixture")
	if _, err := tracestore.ImportSMTR(f, fixture, tracestore.Meta{Name: "bfs-fixture"}); err != nil {
		t.Fatal(err)
	}
	want := readStore(fixture)
	if len(want) != 2000 {
		t.Fatalf("fixture holds %d records, want 2000", len(want))
	}

	p, _ := workload.ByName("bfs")
	for _, shards := range []int{1, 2, 4} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("shards-%d", shards))
		if _, err := RecordAppStore(p, dir, RecordOptions{Accesses: 2000, Seed: 1, Shards: shards}); err != nil {
			t.Fatal(err)
		}
		got := readStore(dir)
		if len(got) != len(want) {
			t.Fatalf("shards=%d: recorded %d records, fixture holds %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i].Access != want[i].Access {
				t.Fatalf("shards=%d: record %d = %+v, fixture %+v", shards, i, got[i].Access, want[i].Access)
			}
		}
	}
}

// A replay that stops at a bad block fails its run, at one channel and
// at several, rather than reporting on the records before the fault; in
// a fleet the other apps' results are kept and the store app's error
// is returned. Re-recording the store fails too, rather than writing
// the records before the fault as a shorter store.
func TestStoreReplayCorruptBlockFails(t *testing.T) {
	const accesses, seed = 10000, 3
	p, _ := workload.ByName("bfs")
	rec := p
	rec.Name = "bfs-corrupt"
	dir := filepath.Join(t.TempDir(), rec.Name)
	if _, err := RecordAppStore(rec, dir, RecordOptions{Accesses: accesses, Seed: seed, Shards: 1}); err != nil {
		t.Fatal(err)
	}
	// Flip one byte three quarters of the way into the sector column:
	// the blocks before it replay, the block holding it fails its
	// checksum.
	col := filepath.Join(dir, "shard-000000.sector")
	raw, err := os.ReadFile(col)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/4] ^= 0xff
	if err := os.WriteFile(col, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sp, err := tracestore.RegisterFleetMember(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { workload.UnregisterExternal(sp.Name) })

	for _, channels := range []int{1, 4} {
		spec := PolicySpecs(accesses, seed, false)[2]
		spec.Channels = channels
		if _, err := RunApp(sp, spec); !errors.Is(err, tracestore.ErrCorrupt) || !strings.Contains(err.Error(), sp.Name) {
			t.Errorf("%d channels: RunApp over a corrupt store returned %v, want a tracestore.ErrCorrupt naming %s",
				channels, err, sp.Name)
		}

		fleet := []workload.Profile{workload.Fleet()[0], sp, workload.Fleet()[2]}
		fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: 2})
		if !errors.Is(err, tracestore.ErrCorrupt) || !strings.Contains(err.Error(), "fleet app 1") {
			t.Errorf("%d channels: fleet error %v, want app 1's tracestore.ErrCorrupt", channels, err)
		}
		if len(fr.Results) != 2 || fr.Results[0].App.Name != fleet[0].Name || fr.Results[1].App.Name != fleet[2].Name {
			t.Errorf("%d channels: fleet kept %d results, want apps 0 and 2", channels, len(fr.Results))
		}
	}
	rerecord := filepath.Join(t.TempDir(), "rerecord")
	if _, err := RecordAppStore(sp, rerecord, RecordOptions{Accesses: accesses, Seed: seed, Shards: 1}); !errors.Is(err, tracestore.ErrCorrupt) {
		t.Errorf("re-recording a corrupt store returned %v, want a tracestore.ErrCorrupt", err)
	}
}
