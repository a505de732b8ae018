package report

import (
	"testing"

	"smores/internal/workload"
)

// TestEventSkipBitIdentical runs the full stack (generator → LLC →
// driver → controller → channel) with and without next-event skipping
// under every policy of the evaluation matrix and requires bit-identical
// results: energies float-for-float, controller stats, gap histograms,
// clocks, and stall accounting. This is the acceptance gate for the
// event-skipping tick loop.
func TestEventSkipBitIdentical(t *testing.T) {
	fleet := workload.Fleet()
	apps := []int{0, len(fleet) / 3, 2 * len(fleet) / 3, len(fleet) - 1}
	accesses := int64(2500)
	if testing.Short() {
		apps = []int{0, len(fleet) - 1}
		accesses = 1200
	}
	for _, spec := range PolicySpecs(accesses, 1, true) {
		spec := spec
		t.Run(spec.Policy.String()+"/"+spec.Scheme.String(), func(t *testing.T) {
			for _, ai := range apps {
				p := fleet[ai]
				want, err := runDriver(new(runStack), p, spec, nil, true)
				if err != nil {
					t.Fatalf("%s legacy: %v", p.Name, err)
				}
				got, err := RunApp(p, spec)
				if err != nil {
					t.Fatalf("%s skip: %v", p.Name, err)
				}
				if want.Bus != got.Bus {
					t.Errorf("%s: bus stats diverge:\n legacy %+v\n skip   %+v",
						p.Name, want.Bus, got.Bus)
				}
				if want.Ctrl != got.Ctrl {
					t.Errorf("%s: controller stats diverge:\n legacy %+v\n skip   %+v",
						p.Name, want.Ctrl, got.Ctrl)
				}
				if !want.ReadGaps.Equal(got.ReadGaps) {
					t.Errorf("%s: read gap histograms diverge:\n legacy %v\n skip   %v",
						p.Name, want.ReadGaps, got.ReadGaps)
				}
				if !want.WriteGaps.Equal(got.WriteGaps) {
					t.Errorf("%s: write gap histograms diverge:\n legacy %v\n skip   %v",
						p.Name, want.WriteGaps, got.WriteGaps)
				}
				if want.Clocks != got.Clocks || want.Reads != got.Reads ||
					want.Writes != got.Writes {
					t.Errorf("%s: run counters diverge: legacy clocks=%d rd=%d wr=%d, skip clocks=%d rd=%d wr=%d",
						p.Name, want.Clocks, want.Reads, want.Writes,
						got.Clocks, got.Reads, got.Writes)
				}
				if want.PerBit != got.PerBit {
					t.Errorf("%s: pJ/bit diverges: legacy %v skip %v", p.Name, want.PerBit, got.PerBit)
				}
				if want.AvgReadLatency != got.AvgReadLatency {
					t.Errorf("%s: read latency diverges: legacy %v skip %v",
						p.Name, want.AvgReadLatency, got.AvgReadLatency)
				}
				if want.IdleFrequency != got.IdleFrequency {
					t.Errorf("%s: idle frequency diverges: legacy %v skip %v",
						p.Name, want.IdleFrequency, got.IdleFrequency)
				}
			}
		})
	}
}
