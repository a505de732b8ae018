package shard

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/workload"
)

// reGen replays a recorded access list (a deterministic stand-in for a
// workload generator that we can inspect afterwards).
type reGen struct {
	ops []gpu.Access
	i   int
}

func (g *reGen) Next() (gpu.Access, bool) {
	if g.i >= len(g.ops) {
		return gpu.Access{}, false
	}
	a := g.ops[g.i]
	g.i++
	return a, true
}

func record(t *testing.T, name string, seed uint64, n int64) []gpu.Access {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	gen, err := workload.NewGenerator(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	var ops []gpu.Access
	for int64(len(ops)) < n {
		a, _ := gen.Next()
		ops = append(ops, a)
	}
	return ops
}

// Both entry points reject bad arguments: BuildPlan and a Planner that
// already holds a cache and streams from an earlier build.
func TestBuildPlanValidation(t *testing.T) {
	ops := record(t, "bfs", 1, 10)
	llc := gpu.DefaultLLCConfig()
	var pl Planner
	if _, err := pl.Build(&reGen{ops: ops}, 2, 10, &llc); err != nil {
		t.Fatal(err)
	}
	for name, build := range map[string]func(gpu.Generator, int, int64, *gpu.LLCConfig) (*Plan, error){
		"BuildPlan": BuildPlan,
		"Planner":   pl.Build,
	} {
		if _, err := build(nil, 2, 10, nil); err == nil {
			t.Errorf("%s: nil generator must error", name)
		}
		if _, err := build(&reGen{ops: ops}, 0, 10, nil); err == nil {
			t.Errorf("%s: zero channels must error", name)
		}
		if _, err := build(&reGen{ops: ops}, 2, 0, nil); err == nil {
			t.Errorf("%s: zero access budget must error", name)
		}
		bad := gpu.LLCConfig{SizeBytes: 3}
		if _, err := build(&reGen{ops: ops}, 2, 10, &bad); err == nil {
			t.Errorf("%s: invalid LLC config must error", name)
		}
	}
}

// A planner reused across builds must produce, build after build, the
// plan a fresh BuildPlan does — whether the channel count shrinks or
// grows, the LLC comes and goes, or its configuration changes — and a
// failed build must not disturb the next one. Steps that reuse a cache
// replay traffic it has already seen, so a line that survived the reset
// would turn misses into hits.
func TestPlannerReuseMatchesFresh(t *testing.T) {
	def := gpu.DefaultLLCConfig()
	small := gpu.LLCConfig{SizeBytes: 64 << 10, LineBytes: 128, SectorBytes: 32, Ways: 8}
	bad := gpu.LLCConfig{SizeBytes: 3}
	steps := []struct {
		app      string
		seed     uint64
		channels int
		n        int64
		llc      *gpu.LLCConfig
	}{
		{"resnet50", 1, 5, 6000, &def},
		{"bfs", 2, 3, 2500, nil},
		{"resnet50", 1, 8, 6000, &def},
		{"bert", 3, 8, 4000, &small},
		{"bfs", 4, 4, 3000, &bad},
		{"bert", 3, 2, 4000, &small},
		{"srad", 5, 6, 3000, &def},
	}
	var pl Planner
	for k, st := range steps {
		ops := record(t, st.app, st.seed, st.n)
		got, gotErr := pl.Build(&reGen{ops: ops}, st.channels, st.n, st.llc)
		want, wantErr := BuildPlan(&reGen{ops: ops}, st.channels, st.n, st.llc)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("step %d: planner err %v, BuildPlan err %v", k, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Channels != want.Channels || len(got.Streams) != len(want.Streams) {
			t.Fatalf("step %d: planner built %d channels (%d streams), want %d (%d)",
				k, got.Channels, len(got.Streams), want.Channels, len(want.Streams))
		}
		if got.Accesses != want.Accesses || got.Reads != want.Reads || got.Writes != want.Writes {
			t.Fatalf("step %d: planner counted %d accesses, %d reads, %d writes; fresh %d, %d, %d",
				k, got.Accesses, got.Reads, got.Writes, want.Accesses, want.Reads, want.Writes)
		}
		if got.LLC != want.LLC {
			t.Fatalf("step %d: LLC stats %+v, fresh %+v", k, got.LLC, want.LLC)
		}
		for ch := range want.Streams {
			if !slices.Equal(got.Streams[ch], want.Streams[ch]) {
				t.Fatalf("step %d: channel %d stream differs from a fresh plan's", k, ch)
			}
		}
	}
}

// The plan must route by sector striping, preserve per-channel order,
// conserve every operation, and conserve total think time.
func TestBuildPlanRoutingAndConservation(t *testing.T) {
	ops := record(t, "srad", 3, 4000)
	const channels = 5
	plan, err := BuildPlan(&reGen{ops: ops}, channels, 4000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Accesses != 4000 {
		t.Fatalf("consumed %d accesses, want 4000", plan.Accesses)
	}
	var wantThink, gotThink, total int64
	for _, a := range ops {
		wantThink += a.Think
	}
	cursors := make([]int, channels)
	for _, a := range ops {
		ch := int(a.Sector % channels)
		stream := plan.Streams[ch]
		if cursors[ch] >= len(stream) {
			t.Fatalf("channel %d stream too short", ch)
		}
		op := stream[cursors[ch]]
		cursors[ch]++
		if op.Sector != a.Sector/channels {
			t.Fatalf("channel %d op %d: local sector %d, want %d", ch, cursors[ch]-1, op.Sector, a.Sector/channels)
		}
		if op.Write != a.Write {
			t.Fatalf("channel %d op %d: write bit flipped", ch, cursors[ch]-1)
		}
	}
	for ch, stream := range plan.Streams {
		if cursors[ch] != len(stream) {
			t.Fatalf("channel %d has %d unexplained ops", ch, len(stream)-cursors[ch])
		}
		for _, op := range stream {
			gotThink += op.Think
		}
		total += int64(len(stream))
	}
	if total != 4000 || plan.Reads+plan.Writes != 4000 {
		t.Fatalf("op conservation: %d in streams, reads+writes=%d, want 4000", total, plan.Reads+plan.Writes)
	}
	if gotThink != wantThink {
		t.Fatalf("think conservation: planned %d, generator produced %d", gotThink, wantThink)
	}
}

// With an LLC the plan's cache statistics and emitted operations must
// match running the same LLC inline over the same access order.
func TestBuildPlanLLCMatchesInline(t *testing.T) {
	ops := record(t, "resnet50", 7, 6000)
	cfg := gpu.DefaultLLCConfig()
	plan, err := BuildPlan(&reGen{ops: ops}, 3, 6000, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := gpu.NewLLC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes int64
	for _, a := range ops {
		needRead, wbs := ref.Access(a.Sector, a.Write)
		writes += int64(len(wbs))
		if needRead {
			reads++
		}
	}
	if plan.Reads != reads || plan.Writes != writes {
		t.Fatalf("plan emitted %d reads / %d writes, inline LLC says %d / %d",
			plan.Reads, plan.Writes, reads, writes)
	}
	if plan.LLC != ref.Stats() {
		t.Fatalf("LLC stats diverge: %+v vs %+v", plan.LLC, ref.Stats())
	}
	var streamed int64
	for _, s := range plan.Streams {
		streamed += int64(len(s))
	}
	if streamed != reads+writes {
		t.Fatalf("streams hold %d ops, want %d", streamed, reads+writes)
	}
}

func TestStreamGenReplay(t *testing.T) {
	ops := []gpu.Access{{Sector: 1}, {Sector: 2, Write: true, Think: 3}}
	g := NewStreamGen(ops)
	for i := range ops {
		a, ok := g.Next()
		if !ok || a != ops[i] {
			t.Fatalf("op %d: got %+v ok=%v", i, a, ok)
		}
	}
	if _, ok := g.Next(); ok {
		t.Fatal("exhausted stream must report !ok")
	}
	if _, ok := (&StreamGen{}).Next(); ok {
		t.Fatal("zero-value stream must be exhausted")
	}
}

func buildUnits(t *testing.T, plan *Plan, mshrs int) []*Unit {
	t.Helper()
	units := make([]*Unit, plan.Channels)
	for i := range units {
		ctrl, err := memctrl.New(memctrl.Config{Channel: i})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUnit(i, ctrl, gpu.DriverConfig{MSHRs: mshrs}, plan.Streams[i])
		if err != nil {
			t.Fatal(err)
		}
		units[i] = u
	}
	return units
}

// Shards must be schedule-independent: any worker count produces
// bit-identical per-unit results and controller statistics.
func TestRunUnitsWorkerInvariance(t *testing.T) {
	ops := record(t, "bert", 9, 3000)
	run := func(workers int) ([]gpu.RunResult, []memctrl.Stats) {
		plan, err := BuildPlan(&reGen{ops: ops}, 4, 3000, nil)
		if err != nil {
			t.Fatal(err)
		}
		units := buildUnits(t, plan, 16)
		if err := RunUnits(units, workers, nil); err != nil {
			t.Fatal(err)
		}
		var rs []gpu.RunResult
		var cs []memctrl.Stats
		for _, u := range units {
			rs = append(rs, u.Result())
			cs = append(cs, u.Ctrl.Stats())
		}
		return rs, cs
	}
	seqR, seqC := run(1)
	for _, workers := range []int{2, 4, 9} {
		parR, parC := run(workers)
		for i := range seqR {
			if seqR[i] != parR[i] {
				t.Fatalf("workers=%d: unit %d driver result diverged: %+v vs %+v", workers, i, seqR[i], parR[i])
			}
			if !seqC[i].Equal(parC[i]) {
				t.Fatalf("workers=%d: unit %d controller stats diverged: %+v vs %+v", workers, i, seqC[i], parC[i])
			}
		}
	}
}

func TestNewUnitRejectsLLC(t *testing.T) {
	ctrl, err := memctrl.New(memctrl.Config{})
	if err != nil {
		t.Fatal(err)
	}
	llc := gpu.DefaultLLCConfig()
	if _, err := NewUnit(0, ctrl, gpu.DriverConfig{LLC: &llc}, nil); err == nil {
		t.Fatal("unit with an LLC must be rejected")
	}
}

// RunUnits must run every unit even when one fails, and report the
// lowest-indexed error regardless of worker count.
func TestRunUnitsLowestIndexedError(t *testing.T) {
	ops := record(t, "bfs", 2, 400)
	for _, workers := range []int{1, 3} {
		plan, err := BuildPlan(&reGen{ops: ops}, 3, 400, nil)
		if err != nil {
			t.Fatal(err)
		}
		units := buildUnits(t, plan, 8)
		// Wedge units 0 and 2: a 1-clock budget cannot finish a stream.
		for _, i := range []int{0, 2} {
			ctrl, err := memctrl.New(memctrl.Config{Channel: i})
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewUnit(i, ctrl, gpu.DriverConfig{MSHRs: 8, MaxClocks: 1}, plan.Streams[i])
			if err != nil {
				t.Fatal(err)
			}
			units[i] = u
		}
		err = RunUnits(units, workers, nil)
		if err == nil {
			t.Fatalf("workers=%d: wedged units must error", workers)
		}
		if err != units[0].Err() {
			t.Fatalf("workers=%d: got %v, want unit 0's error %v", workers, err, units[0].Err())
		}
		if units[1].Err() != nil || units[1].Result().Clocks == 0 {
			t.Fatalf("workers=%d: healthy unit 1 must still have run: err=%v clocks=%d",
				workers, units[1].Err(), units[1].Result().Clocks)
		}
	}
}

// onDone must fire once per unit.
func TestRunUnitsOnDone(t *testing.T) {
	ops := record(t, "bfs", 4, 300)
	plan, err := BuildPlan(&reGen{ops: ops}, 2, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	units := buildUnits(t, plan, 8)
	var calls int
	if err := RunUnits(units, 1, func(*Unit) { calls++ }); err != nil {
		t.Fatal(err)
	}
	if calls != len(units) {
		t.Fatalf("onDone fired %d times, want %d", calls, len(units))
	}
}

// RunJobs runs every job exactly once, on a worker id inside the
// resolved pool (0 on the sequential path), and reports the
// lowest-indexed failure at every worker count.
func TestRunJobs(t *testing.T) {
	if got := Workers(5, 2); got != 2 {
		t.Errorf("Workers(5, 2) = %d, want the job count 2", got)
	}
	if got, want := Workers(0, 1000), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Workers(0, 1000) = %d, want GOMAXPROCS %d", got, want)
	}
	if err := RunJobs(0, 4, func(int, int) error { t.Error("job ran on an empty pool"); return nil }); err != nil {
		t.Errorf("empty pool: %v", err)
	}
	const n = 10
	for _, workers := range []int{0, 1, 3, 16} {
		size := Workers(workers, n)
		runs := make([]int, n)
		ids := make([]int, n)
		err := RunJobs(n, workers, func(w, i int) error {
			runs[i]++
			ids[i] = w
			if i == 4 || i == 7 {
				return fmt.Errorf("job %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 4" {
			t.Errorf("workers=%d: err = %v, want job 4's", workers, err)
		}
		for i := range runs {
			if runs[i] != 1 {
				t.Errorf("workers=%d: job %d ran %d times", workers, i, runs[i])
			}
			if ids[i] < 0 || ids[i] >= size {
				t.Errorf("workers=%d: job %d ran on worker %d of %d", workers, i, ids[i], size)
			}
		}
	}
}

// A unit Reset after a wedged run (its error and partial result kept)
// to another channel's stream and driver configuration runs exactly as
// a fresh NewUnit over a fresh controller does; a Reset that puts a
// cache on the unit fails and changes nothing.
func TestUnitResetMatchesNew(t *testing.T) {
	ops := record(t, "bert", 4, 2000)
	plan, err := BuildPlan(&reGen{ops: ops}, 2, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := memctrl.New(memctrl.Config{Channel: 0})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUnit(0, ctrl, gpu.DriverConfig{MSHRs: 8, MaxClocks: 50}, plan.Streams[0])
	if err != nil {
		t.Fatal(err)
	}
	if u.Run() == nil {
		t.Fatal("the wedged first run succeeded")
	}
	llc := gpu.DefaultLLCConfig()
	if err := u.Reset(1, ctrl, gpu.DriverConfig{LLC: &llc}, plan.Streams[1]); err == nil || u.Channel != 0 || u.Err() == nil {
		t.Fatalf("Reset with a cache: err %v, channel %d, kept error %v", err, u.Channel, u.Err())
	}
	if err := ctrl.Reset(memctrl.Config{Channel: 1}); err != nil {
		t.Fatal(err)
	}
	if err := u.Reset(1, ctrl, gpu.DriverConfig{MSHRs: 16}, plan.Streams[1]); err != nil {
		t.Fatal(err)
	}
	if u.Err() != nil || u.Result() != (gpu.RunResult{}) {
		t.Fatalf("a Reset unit kept its last run: err %v, result %+v", u.Err(), u.Result())
	}
	if err := u.Run(); err != nil {
		t.Fatal(err)
	}
	fresh := buildUnits(t, plan, 16)[1]
	if err := fresh.Run(); err != nil {
		t.Fatal(err)
	}
	if u.Channel != 1 || u.Result() != fresh.Result() || !u.Ctrl.Stats().Equal(fresh.Ctrl.Stats()) {
		t.Fatalf("a Reset unit's run differs from a fresh one's:\ngot  %+v\nwant %+v", u.Result(), fresh.Result())
	}
}
