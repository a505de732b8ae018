package report

import (
	"fmt"
	"math"

	"smores/internal/bus"
	"smores/internal/fault"
	"smores/internal/floats"
	"smores/internal/gpu"
	"smores/internal/memctrl"
	"smores/internal/stats"
	"smores/internal/workload"
)

// MultiResult is the outcome of a multi-channel simulation
// (RunAppMultiChannel).
type MultiResult struct {
	App      workload.Profile
	Channels int
	Label    string
	// PerBit is the aggregate fJ per data bit across all channels.
	PerBit float64
	// PerChannel holds each channel's bus statistics; Bus is their
	// deterministic channel-order merge.
	PerChannel []bus.Stats
	Bus        bus.Stats
	// Ctrl merges the per-channel controller counters (Clock and
	// MaxGapClocks take the maximum — see memctrl.Stats.Merge).
	Ctrl memctrl.Stats
	// ReadGaps and WriteGaps merge the per-channel idle-gap histograms.
	ReadGaps  *stats.Histogram
	WriteGaps *stats.Histogram
	// Fault sums the per-channel injector accounting (zero value on a
	// clean link).
	Fault fault.Stats
	// LLC is the shared cache's statistics (zero value without -llc).
	LLC    gpu.LLCStats
	Clocks int64
	Reads  int64
	Writes int64
}

// channelSpec derives channel i's spec from the run spec: the channel
// id keeps trace tracks distinguishable (0..N-1), and a configured fault
// injector gets a channel-decorrelated seed so the channels see
// independent error processes.
func channelSpec(spec RunSpec, i int) RunSpec {
	chSpec := spec
	chSpec.Channel = i
	if chSpec.Fault != nil {
		// Each channel gets its own injector (they are stateful) with a
		// channel-decorrelated seed.
		fc := *spec.Fault
		fc.Seed = DecorrelateSeed(fc.Seed, i)
		chSpec.Fault = &fc
	}
	return chSpec
}

// mergeChannels folds the per-channel outcomes into mr in channel order
// (the deterministic merge). It validates the label
// and invariant contracts; on any violation the caller must discard mr.
func mergeChannels(mr *MultiResult, ctrls []*memctrl.Controller, injectors []*fault.Injector) error {
	mr.Label = ctrls[0].Describe()
	mr.ReadGaps = ctrls[0].ReadGapHistogram()
	mr.WriteGaps = ctrls[0].WriteGapHistogram()
	for i, c := range ctrls {
		if got := c.Describe(); got != mr.Label {
			return fmt.Errorf("report: channel %d label %q disagrees with channel 0's %q", i, got, mr.Label)
		}
		st := c.BusStats()
		mr.PerChannel = append(mr.PerChannel, st)
		mr.Bus.Merge(st)
		mr.Ctrl.Merge(c.Stats())
		if i > 0 {
			if err := mr.ReadGaps.Merge(c.ReadGapHistogram()); err != nil {
				return fmt.Errorf("report: merging channel %d read gaps: %w", i, err)
			}
			if err := mr.WriteGaps.Merge(c.WriteGapHistogram()); err != nil {
				return fmt.Errorf("report: merging channel %d write gaps: %w", i, err)
			}
		}
		if cs := c.Stats(); cs.DecisionMismatches != 0 || cs.BusConflicts != 0 {
			return fmt.Errorf("report: channel %d invariant violated: %+v", i, cs)
		}
		if in := injectors[i]; in != nil {
			fs := in.Stats()
			if !fs.Conserves() {
				return fmt.Errorf("report: channel %d: fault detection layers do not partition corrupted bursts: %v", i, fs)
			}
			mr.Fault.Add(fs)
		}
	}
	mr.PerBit = mr.Bus.PerBit()
	return nil
}

// ChannelBalance returns the max/min ratio of per-channel transferred
// bits: 1.0 means perfectly balanced striping (including the degenerate
// all-channels-idle case), larger means skew. The two failure shapes
// are distinct sentinels rather than ambiguous zeros: NaN for a result
// with no channels at all, +Inf when at least one channel moved data
// while another moved none (infinitely imbalanced).
func (m MultiResult) ChannelBalance() float64 {
	if len(m.PerChannel) == 0 {
		return math.NaN()
	}
	lo, hi := m.PerChannel[0].DataBits, m.PerChannel[0].DataBits
	for _, st := range m.PerChannel {
		if st.DataBits < lo {
			lo = st.DataBits
		}
		if st.DataBits > hi {
			hi = st.DataBits
		}
	}
	if floats.IsZero(hi) {
		return 1 // nothing moved anywhere: trivially balanced
	}
	if floats.IsZero(lo) {
		return math.Inf(1)
	}
	return hi / lo
}
