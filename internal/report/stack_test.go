package report

import (
	"reflect"
	"testing"

	"smores/internal/bus"
	"smores/internal/fault"
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
// with the LLC and faulted exact data, then a one-channel expected-mode
// fleet, then the first again. The repeat equals the first run at every
// worker count, and the first run's results are unchanged after the
// others ran, so no result points into a stack.
func TestPooledStacksMatchFirstRun(t *testing.T) {
	fleet := workload.Fleet()[:3]
	x := PolicySpecs(600, 7, true)[2]
	x.Channels = 4
	x.Fault = &fault.Config{Model: fault.ModelUniform, Rate: 1e-3, Seed: 5, EDC: true}
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
}

// A repeated fleet call reuses the stacks the previous call pooled, so
// an app allocates only its label, its generator, and its driver with
// its completion callback: 10 times per app on one channel. On four
// channels each channel adds a unit, a driver, a stream and a callback:
// 29 per app. A result is a plain value, so a per-channel clone of the
// gap histograms or a per-channel label would break these bounds.
func TestRepeatedFleetAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bounds assume sync.Pool keeps what it is given")
	}
	fleet := workload.Fleet()[:3]
	for _, c := range []struct {
		channels int
		perApp   float64
	}{{1, 12}, {4, 34}} {
		spec := PolicySpecs(1000, 1, false)[2]
		spec.Channels = c.channels
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := RunFleetApps(fleet, spec, FleetOptions{Workers: 1}); err != nil {
				t.Fatal(err)
			}
		})
		if perApp := allocs / float64(len(fleet)); perApp > c.perApp {
			t.Errorf("%d channels: a repeated fleet call allocated %.1f times per app, want at most %.0f",
				c.channels, perApp, c.perApp)
		}
	}
}
