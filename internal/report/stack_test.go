package report

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"smores/internal/bus"
	"smores/internal/fault"
	"smores/internal/gpu"
	"smores/internal/obs"
	"smores/internal/tracestore"
	"smores/internal/workload"
)

// cloneFleet deep-copies a fleet result: a copy made right after a run
// shows whether a later run wrote into storage the result points to.
func cloneFleet(fr FleetResult) FleetResult {
	c := fr
	c.Results = make([]AppResult, len(fr.Results))
	for i, r := range fr.Results {
		r.PerChannel = append([]bus.Stats(nil), r.PerChannel...)
		c.Results[i] = r
	}
	return c
}

// Fleets of different shapes share the pooled stacks: a 4-channel fleet
// with the LLC, faulted exact data, a tracer and a profile, then a
// one-channel expected-mode fleet, then the first again. Each fleet
// holds a replayed store member, whose 1000 records the first fleet's
// budget stops short of and the second's reads to the end. The repeat
// equals the first run at every worker count, and the first run's
// results are unchanged after the others ran, so no result points into
// a stack. Every stack left in the pool keeps storage only: none
// reaches a replay, its store, or a run's tracer or profile. The
// collector stays off and one P runs the test, so that the check finds
// every pooled stack: a collection empties the pool, and a pool's
// per-P slot is invisible to a goroutine on another P.
func TestPooledStacksMatchFirstRun(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, _ := workload.ByName("bfs")
	fleet := append(workload.Fleet()[:3:3], recordMember(t, p, 1000, 11))
	x := PolicySpecs(600, 7, true)[2]
	x.Channels = 4
	x.Fault = &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, Seed: 5, EDC: true}
	x.Tracer = obs.NewTracer(64)
	x.Profile = obs.NewProfile()
	y := PolicySpecs(1200, 3, false)[4]
	run := func(spec RunSpec, workers int) FleetResult {
		t.Helper()
		fr, err := RunFleetApps(fleet, spec, FleetOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	var ref FleetResult
	for _, workers := range []int{1, 3} {
		first := run(x, workers)
		kept := cloneFleet(first)
		run(y, workers)
		again := run(x, workers)
		if !reflect.DeepEqual(first, kept) {
			t.Fatalf("workers %d: a later fleet changed an earlier fleet's results", workers)
		}
		if !reflect.DeepEqual(again, kept) {
			t.Fatalf("workers %d: the repeated fleet differs from its first run", workers)
		}
		if workers == 1 {
			ref = kept
		} else if !reflect.DeepEqual(kept, ref) {
			t.Fatalf("workers %d: results differ from one worker's", workers)
		}
	}
	if ref.Results[0].Fault.CorruptedBursts == 0 {
		t.Fatal("the faulted fleet corrupted nothing")
	}

	var pooled []*runStack
	for {
		st, ok := stacks.Get().(*runStack)
		if !ok {
			break
		}
		pooled = append(pooled, st)
	}
	if len(pooled) == 0 && !raceEnabled {
		t.Fatal("no stack was pooled")
	}
	banned := []reflect.Type{
		reflect.TypeOf((*tracestore.Replayer)(nil)),
		reflect.TypeOf((*tracestore.Reader)(nil)),
		reflect.TypeOf((*tracestore.Store)(nil)),
		reflect.TypeOf((*obs.Tracer)(nil)),
		reflect.TypeOf((*obs.Profile)(nil)),
	}
	for _, st := range pooled {
		if path := reaches(reflect.ValueOf(st), "stack", banned, map[visit]bool{}); path != "" {
			t.Errorf("a pooled stack reaches a run's object: %s", path)
		}
		stacks.Put(st)
	}

	// A driver usually lets go of its generator itself, once the stream
	// ends or the budget is spent, but one whose run drains the instant
	// it issues its last access still holds it. Pooling such a stack
	// must drop the replay.
	st := getStack()
	if _, err := runApp(st, fleet[3], y, 1, nil); err != nil {
		t.Fatal(err)
	}
	gen, err := workload.OpenGenerator(fleet[3], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.drv.Reset(gpu.DriverConfig{}, &st.chans[0].ctrl, gen); err != nil {
		t.Fatal(err)
	}
	putStack(st)
	if path := reaches(reflect.ValueOf(st), "stack", banned, map[visit]bool{}); path != "" {
		t.Errorf("a stack pooled with its driver holding a replay still reaches: %s", path)
	}
	if err := endStream(fleet[3], gen); err != nil {
		t.Fatal(err)
	}
}

// visit is a pointer reaches has followed: an address and its type.
type visit struct {
	addr uintptr
	typ  reflect.Type
}

// reaches returns the path from v to the first pointer of a banned type
// reachable through pointers, interfaces, struct fields, and slice
// elements up to the slice's capacity, or "" when there is none. It
// cannot see what a closure captured.
func reaches(v reflect.Value, path string, banned []reflect.Type, seen map[visit]bool) string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return ""
		}
		for _, b := range banned {
			if v.Type() == b {
				return path
			}
		}
		k := visit{v.Pointer(), v.Type()}
		if seen[k] {
			return ""
		}
		seen[k] = true
		return reaches(v.Elem(), path, banned, seen)
	case reflect.Interface:
		if v.IsNil() {
			return ""
		}
		return reaches(v.Elem(), path, banned, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := reaches(v.Field(i), path+"."+v.Type().Field(i).Name, banned, seen); p != "" {
				return p
			}
		}
	case reflect.Slice:
		if v.IsNil() || !mayPoint(v.Type().Elem()) {
			return ""
		}
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		if !mayPoint(v.Type().Elem()) {
			return ""
		}
		for i := 0; i < v.Len(); i++ {
			if p := reaches(v.Index(i), path+"["+strconv.Itoa(i)+"]", banned, seen); p != "" {
				return p
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			if p := reaches(it.Value(), path+"[…]", banned, seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// mayPoint reports whether a value of type t can hold a pointer that
// reaches walks.
func mayPoint(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice, reflect.Map:
		return true
	case reflect.Array:
		return mayPoint(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if mayPoint(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// A repeated fleet call reuses the stacks the previous call pooled, and
// with them each worker's generator, driver, shard units and fault
// injectors, so an app allocates only its label: 5 times per app on one
// channel, counting the call's own result and bookkeeping. On four
// channels an app adds its per-channel statistics and the shard pool's
// closures: 8 per app. A result is a plain value, so a per-channel clone
// of the gap histograms or a per-channel label would break these bounds,
// and so would a generator, driver or unit built per run. A replayed
// store member adds its replay, its reader, its column files (a file per
// column and shard) and the decompressor's tables per block, but no
// decode columns: 44 per app.
func TestRepeatedFleetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds assume sync.Pool keeps what it is given")
	}
	fleet := workload.Fleet()[:3]
	var stores []workload.Profile
	for i, p := range fleet {
		stores = append(stores, recordMember(t, p, 1000, uint64(i)))
	}
	for _, c := range []struct {
		fleet    []workload.Profile
		channels int
		perApp   float64
	}{{fleet, 1, 7}, {fleet, 4, 13}, {stores, 1, 49}} {
		spec := PolicySpecs(1000, 1, false)[2]
		spec.Channels = c.channels
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := RunFleetApps(c.fleet, spec, FleetOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if perApp := allocs / float64(len(c.fleet)); perApp > c.perApp {
			t.Errorf("%d channels, %s: a repeated fleet call allocated %.1f times per app, want at most %.0f",
				c.channels, c.fleet[0].Name, perApp, c.perApp)
		}
	}
}
