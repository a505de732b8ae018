// Package bus models one GDDR6X data channel: sixteen data pins plus two
// DBI pins, organized as two byte groups of (8 data + 1 DBI) wires. The
// channel sequences whole transfers — MTA bursts, SMOREs sparse bursts,
// postambles and idle periods — while tracking per-wire trailing levels,
// integrating energy, and (in exact-data mode) validating that no encoded
// wire ever takes a 3ΔV step.
package bus

import (
	"fmt"
	"sync"

	"smores/internal/core"
	"smores/internal/floats"
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
)

// Channel geometry: a 32-byte sector moves over 16 data pins as 8 PAM4
// symbols per pin, i.e. two byte groups each carrying 16 bytes.
const (
	// Groups is the number of byte groups per channel.
	Groups = 2
	// BurstBytes is the transfer size of one burst (a 32-byte sector).
	BurstBytes = 32
	// GroupBurstBytes is each group's share of a burst.
	GroupBurstBytes = BurstBytes / Groups
	// UIsPerClock is the number of unit intervals per command clock
	// (data clock at 2× the command clock, double data rate).
	UIsPerClock = 4
	// BurstUIs is the dense burst length: 8 symbols per pin.
	BurstUIs = core.BurstSlotClocks * UIsPerClock
)

// Paper-derived codec logic energies (encoder + decoder), fJ per data bit.
// The MTA figure is the paper's §V-B "additional 10 fJ/bit for the MTA
// encoder/decoder logic"; the sparse figure is twice the quoted 3.5 fJ/bit
// per 4b3s-DBI encoder, which also reconciles our wire-only energies with
// the paper's Table IV within 0.3%.
const (
	DefaultMTALogicPerBit    = 10.0
	DefaultSparseLogicPerBit = 7.0
)

// Config assembles a channel.
type Config struct {
	// Model is the per-symbol energy model. Nil selects the default.
	Model *pam4.EnergyModel
	// MTACodec encodes dense bursts. Nil builds the standard codec.
	MTACodec *mta.Codec
	// Family supplies sparse codecs by length. Nil builds the paper's
	// default family (3-level, DBI, paper-faithful).
	Family *core.Family
	// ExactData transmits and validates real symbol streams. When false
	// the channel runs in expected-energy mode: per-transfer energy uses
	// closed-form expectations over uniform data (the simulator fast
	// path), and transition validation is unavailable.
	ExactData bool
	// MTALogicPerBit / SparseLogicPerBit account encoder+decoder energy;
	// negative values select the defaults, zero disables logic energy.
	MTALogicPerBit    float64
	SparseLogicPerBit float64
	// Record keeps the ordered event sequence (bursts with payloads,
	// postambles, idles) retrievable via Events — for integration tests
	// and debugging. Payloads are captured in exact-data mode.
	Record bool
	// LevelShiftedIdle models the paper's hypothetical optimized MTA
	// (Fig. 8b): instead of driving a one-clock L1 postamble, an MTA
	// burst transitions to idle through a single level-shifted symbol on
	// the wires that ended at L3 — far cheaper than the postamble.
	LevelShiftedIdle bool
	// Profile attributes every femtojoule the channel accounts into the
	// energy profiler, keyed by (phase × codec × wire × level ×
	// transition class). In exact-data mode each transmitted symbol is
	// attributed individually; in expected mode the closed-form energies
	// land in aggregate cells. The channel tallies the samples privately
	// (obs.NewTally) and adds nothing to Profile itself: a caller driving
	// the channel publishes the tally, DetachTally().Publish(Profile),
	// before it reads Profile. The published total reconciles with
	// Stats.TotalEnergy (test-enforced). Nil disables attribution; the
	// hot path then pays one nil check per accounting block.
	Profile *obs.Profile
	// Fault installs a link-reliability hook (see hook.go) that observes
	// every exact-data burst, handed the columns the channel put on the
	// wires, and may inject/classify symbol errors. Nil
	// disables injection at zero hot-path cost beyond a nil check; the
	// hook is never consulted in expected mode.
	Fault BurstHook
}

// Stats accumulates channel activity. All energies are femtojoules.
type Stats struct {
	DataBits        float64
	WireEnergy      float64
	PostambleEnergy float64
	LogicEnergy     float64
	// ReplayEnergy is wire+logic energy burned by EDC-triggered burst
	// retransmissions (ReplayBurst). Kept outside WireEnergy/LogicEnergy:
	// replays deliver no new payload bits, so folding their joules into
	// the payload phases would silently improve pJ/bit.
	ReplayEnergy float64
	MTABursts    int64
	SparseBursts int64
	// ReplayBursts counts retransmissions (not included in MTABursts or
	// SparseBursts; DataBits does not advance on replay).
	ReplayBursts int64
	Postambles   int64
	BusyUIs      int64
	IdleUIs      int64
	Violations   int64
}

// TotalEnergy returns wire + postamble + logic + replay energy in fJ.
func (s Stats) TotalEnergy() float64 {
	return s.WireEnergy + s.PostambleEnergy + s.LogicEnergy + s.ReplayEnergy
}

// PerBit returns total fJ per transferred data bit (0 if no data moved).
func (s Stats) PerBit() float64 {
	if floats.Eq(s.DataBits, 0) {
		return 0
	}
	return s.TotalEnergy() / s.DataBits
}

// Utilization returns the busy fraction of wire time.
func (s Stats) Utilization() float64 {
	total := s.BusyUIs + s.IdleUIs
	if total == 0 {
		return 0
	}
	return float64(s.BusyUIs) / float64(total)
}

// Merge adds another channel's accumulated statistics into s — the
// multi-channel roll-up path. Every field is additive; merging shard
// snapshots in a fixed channel order yields byte-identical float sums
// regardless of how the shards were scheduled (the sharded-runner
// differential test rests on this).
func (s *Stats) Merge(o Stats) {
	s.DataBits += o.DataBits
	s.WireEnergy += o.WireEnergy
	s.PostambleEnergy += o.PostambleEnergy
	s.LogicEnergy += o.LogicEnergy
	s.ReplayEnergy += o.ReplayEnergy
	s.MTABursts += o.MTABursts
	s.SparseBursts += o.SparseBursts
	s.ReplayBursts += o.ReplayBursts
	s.Postambles += o.Postambles
	s.BusyUIs += o.BusyUIs
	s.IdleUIs += o.IdleUIs
	s.Violations += o.Violations
}

// Equal reports exact equality of two snapshots. Float fields compare
// bit-identically (floats.Eq) — this is the comparison the sequential
// vs. sharded differential gates use, not a tolerance check.
func (s Stats) Equal(o Stats) bool {
	return floats.Eq(s.DataBits, o.DataBits) &&
		floats.Eq(s.WireEnergy, o.WireEnergy) &&
		floats.Eq(s.PostambleEnergy, o.PostambleEnergy) &&
		floats.Eq(s.LogicEnergy, o.LogicEnergy) &&
		floats.Eq(s.ReplayEnergy, o.ReplayEnergy) &&
		s.MTABursts == o.MTABursts &&
		s.SparseBursts == o.SparseBursts &&
		s.ReplayBursts == o.ReplayBursts &&
		s.Postambles == o.Postambles &&
		s.BusyUIs == o.BusyUIs &&
		s.IdleUIs == o.IdleUIs &&
		s.Violations == o.Violations
}

// Channel is a single GDDR6X data channel. Not safe for concurrent use.
type Channel struct {
	model       *pam4.EnergyModel
	mtaCodec    *mta.Codec
	family      *core.Family
	exact       bool
	mtaLogic    float64
	sparseLogic float64
	shiftIdle   bool

	states  [Groups]mta.GroupState
	lastMTA bool // whether the most recent burst used MTA encoding
	// mtaChain counts consecutive MTA beats since the last seam reset
	// (idle, postamble, or sparse burst), driving the expected-energy
	// model's inversion warm-up.
	mtaChain  int
	recording bool
	events    []Event
	stats     Stats
	prof      *obs.Profile
	// tally collects prof's samples until DetachTally hands them over
	// (nil without a profile, and between a detach and the next
	// transfer).
	tally *obs.Profile
	// fault is the installed link-reliability hook (nil = perfect link);
	// verdict latches the hook's judgement of the most recent burst.
	fault   BurstHook
	verdict BurstVerdict
	// expCache memoizes per-codec expected burst energies, indexed by
	// code length and valid where expSet has the length's bit: expected
	// mode otherwise recomputes the DBI multinomial on every burst, and
	// the values are per-codec constants for a fixed family and model.
	expCache [core.MaxSparseSymbols + 1]expSparseEnergy
	expSet   uint16
	// levelE caches the model's per-level symbol energies: exact mode
	// integrates energy symbol by symbol and a direct array load beats a
	// method call with a validity check in the innermost loop.
	levelE [pam4.NumLevels]float64
	// txCols holds each group's columns of the latest exact-mode burst:
	// the accounting walks them and the fault hook is handed them. The
	// buffers are reused, so steady-state bursts allocate nothing.
	txCols [Groups][]mta.Column
}

// expSparseEnergy caches one sparse codec's closed-form group-burst
// energies (identical floats to calling the codec directly).
type expSparseEnergy struct {
	total float64 // ExpectedBurstEnergy(GroupBurstBytes)
	dbi   float64 // ExpectedBurstDBIEnergy(GroupBurstBytes)
}

// New builds a channel, filling defaults for nil config fields.
func New(cfg Config) *Channel {
	ch := new(Channel)
	ch.Reset(cfg)
	return ch
}

// Reset rebuilds ch for cfg exactly as New(cfg) would. It keeps only
// storage: the exact-mode column buffers. A tally not yet detached is
// discarded.
func (ch *Channel) Reset(cfg Config) {
	if cfg.Model == nil {
		cfg.Model = pam4.DefaultEnergyModel()
	}
	if cfg.MTACodec == nil {
		if cfg.Model == pam4.DefaultEnergyModel() {
			cfg.MTACodec = mta.Default()
		} else {
			cfg.MTACodec = mta.New(cfg.Model)
		}
	}
	if cfg.Family == nil {
		cfg.Family = core.DefaultFamily()
	}
	if cfg.MTALogicPerBit < 0 {
		cfg.MTALogicPerBit = DefaultMTALogicPerBit
	}
	if cfg.SparseLogicPerBit < 0 {
		cfg.SparseLogicPerBit = DefaultSparseLogicPerBit
	}
	ch.tally.Publish(nil)
	txCols := ch.txCols
	for g := range txCols {
		txCols[g] = txCols[g][:0]
	}
	*ch = Channel{
		model:       cfg.Model,
		mtaCodec:    cfg.MTACodec,
		family:      cfg.Family,
		exact:       cfg.ExactData,
		mtaLogic:    cfg.MTALogicPerBit,
		sparseLogic: cfg.SparseLogicPerBit,
		shiftIdle:   cfg.LevelShiftedIdle,
		recording:   cfg.Record,
		prof:        cfg.Profile,
		fault:       cfg.Fault,
		levelE:      cfg.Model.LevelEnergies(),
		txCols:      txCols,
	}
	for g := range ch.states {
		ch.states[g] = mta.IdleGroupState()
	}
}

// Stats returns a snapshot of accumulated statistics.
func (ch *Channel) Stats() Stats { return ch.stats }

// Family returns the channel's sparse codec family.
func (ch *Channel) Family() *core.Family { return ch.family }

// MTACodec returns the channel's dense codec.
func (ch *Channel) MTACodec() *mta.Codec { return ch.mtaCodec }

// SendBurst transfers one 32-byte sector. codeLength selects the
// encoding: 0 for dense MTA, otherwise a sparse output length available
// in the channel's family. data supplies the payload in exact mode and
// may be nil in expected mode.
func (ch *Channel) SendBurst(data []byte, codeLength int) error {
	if ch.recording {
		ch.record(Event{Kind: EventBurst, CodeLength: codeLength, Data: append([]byte(nil), data...)})
	}
	ch.takeTally()
	pre := ch.states
	var err error
	if codeLength == 0 {
		err = ch.sendMTA(data)
	} else {
		err = ch.sendSparse(data, codeLength)
	}
	if ch.exact && err == nil {
		ph := obs.PhaseSparsePayload
		if codeLength == 0 {
			ph = obs.PhaseMTAPayload
		}
		ch.account(&pre, ch.burstWalk(codeLength, ph, obs.PhaseDBIWire), &ch.stats.WireEnergy)
	}
	if ch.faultActive() && err == nil {
		ch.dispatchFault(data, codeLength, pre, false)
	}
	return err
}

// Energy attribution: the channel's accounting paths feed every
// femtojoule they add to Stats into a private tally keyed like the
// obs.Profile cells (phase × codec × wire × level × transition class),
// and the channel's runner publishes the tally into Config.Profile.
//
// In exact-data mode each transmitted symbol is attributed individually
// with its real voltage-step class, by the symbol kernel in kernel.go
// that also integrates its energy; in expected mode the closed-form
// energies land in aggregate cells (wire="agg", level="mix",
// transition="mix"). Either way the profiler's TotalEnergy reconciles
// with Stats.TotalEnergy to float round-off once published — a property
// the conservation tests enforce for every policy × scheme combination.
//
// Phase partition of Stats:
//
//	WireEnergy      = mta-payload + dbi-wire + sparse-payload + idle-shift
//	PostambleEnergy = postamble
//	LogicEnergy     = logic
//	ReplayEnergy    = replay (retransmission wire+logic, see hook.go)

// takeTally gives a profiled channel a tally from the pool when it has
// none: at its first transfer, and at the first after DetachTally.
func (ch *Channel) takeTally() {
	if ch.tally == nil && ch.prof != nil {
		ch.tally = obs.NewTally(ch.exact)
	}
}

// DetachTally detaches and returns what the channel has attributed since
// the last detach, adding nothing to Config.Profile. Until the caller
// publishes it there, once, with DetachTally().Publish(Config.Profile),
// the profile holds none of that energy; runners publish once per run,
// after the run's checks pass, in an order of their choosing. The
// channel's next transfer starts a fresh tally; a second call returns
// nil, as does a channel without a profile.
func (ch *Channel) DetachTally() *obs.Profile {
	t := ch.tally
	ch.tally = nil
	return t
}

// sendMTA accounts a dense burst in expected mode; in exact mode it
// accounts the logic energy and encodes the payload into txCols.
func (ch *Channel) sendMTA(data []byte) error {
	ch.stats.MTABursts++
	ch.stats.DataBits += BurstBytes * 8
	ch.stats.BusyUIs += BurstUIs
	logic := BurstBytes * 8 * ch.mtaLogic
	ch.stats.LogicEnergy += logic
	ch.tally.AddAggregate(obs.PhaseLogic, obs.ProfileCodecMTA, logic, 0)
	ch.lastMTA = true
	if !ch.exact {
		// 2 groups × 2 beats, with the inversion chain warming up from
		// the last seam reset.
		for beat := 0; beat < 2; beat++ {
			ch.stats.WireEnergy += Groups * ch.mtaCodec.ExpectedBeatEnergyAt(ch.mtaChain)
			if ch.tally != nil {
				payload, dbi := ch.mtaCodec.ExpectedBeatEnergySplitAt(ch.mtaChain)
				ch.tally.AddAggregate(obs.PhaseMTAPayload, obs.ProfileCodecMTA,
					Groups*payload, Groups*mta.GroupDataWires*mta.SeqSymbols)
				ch.tally.AddAggregate(obs.PhaseDBIWire, obs.ProfileCodecMTA,
					Groups*dbi, Groups*mta.SeqSymbols)
			}
			ch.mtaChain++
		}
		return nil
	}
	if len(data) != BurstBytes {
		return fmt.Errorf("bus: MTA burst needs %d bytes, got %d", BurstBytes, len(data))
	}
	ch.encodeMTA(data)
	return nil
}

// encodeMTA encodes a dense burst into txCols from the channel's
// trailing levels, advancing them.
func (ch *Channel) encodeMTA(data []byte) {
	for g := range ch.txCols {
		cols := ch.txCols[g][:0]
		for beat := 0; beat < 2; beat++ {
			var bytes8 [mta.GroupDataWires]byte
			copy(bytes8[:], data[g*GroupBurstBytes+beat*mta.GroupDataWires:])
			bc := ch.mtaCodec.EncodeGroupColumns(bytes8, &ch.states[g])
			cols = append(cols, bc[:]...)
		}
		ch.txCols[g] = cols
	}
}

// encodeSparse encodes a sparse burst into txCols from the channel's
// trailing levels, advancing them.
func (ch *Channel) encodeSparse(sc *core.SparseGroupCodec, data []byte) error {
	for g := range ch.txCols {
		cols, err := sc.AppendGroupBurst(ch.txCols[g][:0], data[g*GroupBurstBytes:(g+1)*GroupBurstBytes], &ch.states[g])
		if err != nil {
			return err
		}
		ch.txCols[g] = cols // keep the (possibly grown) buffer
	}
	return nil
}

// sendSparse accounts a sparse burst in expected mode; in exact mode it
// accounts the logic energy and encodes the payload into txCols.
func (ch *Channel) sendSparse(data []byte, codeLength int) error {
	sc := ch.family.ByLength(codeLength)
	if sc == nil {
		return fmt.Errorf("bus: no sparse codec of length %d in family", codeLength)
	}
	ch.stats.SparseBursts++
	ch.stats.DataBits += BurstBytes * 8
	// Both groups transmit in parallel, so wall-clock occupancy is one
	// group's burst length.
	ch.stats.BusyUIs += int64(sc.BurstUIs(GroupBurstBytes))
	logic := BurstBytes * 8 * ch.sparseLogic
	ch.stats.LogicEnergy += logic
	codecIdx := obs.ProfileCodecIndex(codeLength)
	ch.tally.AddAggregate(obs.PhaseLogic, codecIdx, logic, 0)
	ch.lastMTA = false
	ch.mtaChain = 0 // sparse bursts end at ≤L2: the inversion chain resets
	if !ch.exact {
		e := ch.expectedSparse(sc, codeLength)
		ch.stats.WireEnergy += Groups * e.total
		if ch.tally != nil {
			cols := int64(sc.BurstUIs(GroupBurstBytes))
			ch.tally.AddAggregate(obs.PhaseSparsePayload, codecIdx,
				Groups*(e.total-e.dbi), Groups*cols*mta.GroupDataWires)
			ch.tally.AddAggregate(obs.PhaseDBIWire, codecIdx,
				Groups*e.dbi, Groups*cols)
		}
		return nil
	}
	if len(data) != BurstBytes {
		return fmt.Errorf("bus: sparse burst needs %d bytes, got %d", BurstBytes, len(data))
	}
	return ch.encodeSparse(sc, data)
}

// expShared memoizes closed-form group-burst energies across channels,
// keyed by codec identity. Fleet runs construct one channel per app per
// policy over the same (memoized) family, so the codec pointers are
// stable and the DBI multinomials — per-codec constants — are computed
// once per process instead of once per channel. sync.Map because fleet
// workers build and drive channels concurrently.
var expShared sync.Map // *core.SparseGroupCodec → expSparseEnergy

// expectedSparse returns the memoized closed-form group-burst energies
// for a sparse codec (identical floats to calling the codec directly —
// the caches are a pure speedup for expected mode). The per-channel
// array is the contention-free fast path; the process-wide map shares
// the one-time computation across the fleet.
func (ch *Channel) expectedSparse(sc *core.SparseGroupCodec, codeLength int) expSparseEnergy {
	if codeLength >= 0 && codeLength < len(ch.expCache) && ch.expSet&(1<<codeLength) != 0 {
		return ch.expCache[codeLength]
	}
	var e expSparseEnergy
	if v, ok := expShared.Load(sc); ok {
		e = v.(expSparseEnergy)
	} else {
		e = expSparseEnergy{
			total: sc.ExpectedBurstEnergy(GroupBurstBytes),
			dbi:   sc.ExpectedBurstDBIEnergy(GroupBurstBytes),
		}
		expShared.Store(sc, e)
	}
	if codeLength >= 0 && codeLength < len(ch.expCache) {
		ch.expCache[codeLength] = e
		ch.expSet |= 1 << codeLength
	}
	return e
}

// Postamble drives the one-command-clock L1 postamble on all wires. The
// device issues it after an MTA burst that is followed by bus idle; the
// channel records the calibrated postamble drive energy.
func (ch *Channel) Postamble() {
	ch.record(Event{Kind: EventPostamble})
	ch.takeTally()
	ch.stats.Postambles++
	ch.mtaChain = 0
	ch.lastMTA = false
	ch.stats.BusyUIs += PostambleUIs()
	postE := float64(Groups*mta.GroupWires) * float64(PostambleUIs()) *
		ch.model.PostambleWireUIEnergy()
	ch.stats.PostambleEnergy += postE
	if ch.exact {
		// postE already charges the drive: the walk attributes each
		// symbol at the drive energy per wire-UI, checks it, and drops
		// its sum.
		e := ch.model.PostambleWireUIEnergy()
		driveE := [pam4.NumLevels]float64{e, e, e, e}
		post := walkSpec{ph: obs.PhasePostamble, dbiPh: obs.PhasePostamble,
			codec: obs.ProfileCodecMTA, steps: &plainSteps, energy: &driveE}
		for g := range ch.states {
			prev, sum := ch.states[g], 0.0
			ch.walk(g, &prev, postambleCols[:], post, &sum)
		}
	} else {
		// Expected mode carries no trailing wire state, so the drive is
		// attributed in aggregate.
		ch.tally.AddAggregate(obs.PhasePostamble, obs.ProfileCodecMTA,
			postE, Groups*mta.GroupWires*PostambleUIs())
	}
	for g := range ch.states {
		ch.states[g] = mta.GroupState(mta.PostambleColumn())
	}
}

// PostambleUIs returns the postamble duration in unit intervals.
func PostambleUIs() int64 { return mta.PostambleUIs }

// Idle advances the bus through idle unit intervals (the bus parks at the
// free L0 level). With LevelShiftedIdle, wires that ended at L3 step
// through one level-shifted L1 symbol first.
func (ch *Channel) Idle(uis int64) {
	if uis <= 0 {
		return
	}
	ch.record(Event{Kind: EventIdle, IdleUIs: uis})
	ch.takeTally()
	// Expected-mode level-shifted idle energy: one L1 symbol per wire
	// expected to have ended at L3.
	if ch.shiftIdle && ch.lastMTA && !ch.exact && ch.mtaChain > 0 {
		pEnd := ch.mtaCodec.EndL3ProbAt(ch.mtaChain - 1)
		wires := Groups * (mta.GroupDataWires*pEnd + 0.25) // DBI wire's last symbol is uniform
		shiftE := wires * ch.model.SymbolEnergy(pam4.L1)
		ch.stats.WireEnergy += shiftE
		ch.tally.AddAggregate(obs.PhaseIdleShift, obs.ProfileCodecMTA, shiftE, 0)
	}
	ch.stats.IdleUIs += uis
	ch.mtaChain = 0
	for g := 0; g < Groups; g++ {
		if ch.exact {
			prev := ch.states[g]
			if ch.shiftIdle {
				// Step L3 wires through a shifted L1 on the way down.
				var step [1]mta.Column
				needed := false
				for w := range step[0] {
					step[0][w] = pam4.L0
					if prev[w] == pam4.L3 {
						step[0][w] = pam4.L1
						needed = true
					}
				}
				if needed {
					shift := walkSpec{ph: obs.PhaseIdleShift, dbiPh: obs.PhaseIdleShift,
						codec: obs.ProfileCodecMTA, steps: &seamSteps, energy: &ch.levelE}
					ch.walk(g, &prev, step[:], shift, &ch.stats.WireEnergy)
				}
			}
			// Parking at L0 is a 3ΔV step for a data wire still at L3.
			for w := 0; w < mta.GroupDataWires; w++ {
				if pam4.Delta(prev[w], mta.IdleLevel) > pam4.MaxTransition {
					ch.stats.Violations++
				}
			}
		}
		ch.states[g] = mta.IdleGroupState()
	}
	ch.lastMTA = false
}

// NeedsPostamble reports whether ending the current activity into idle
// requires a postamble: only dense MTA bursts do (a sequence may end at
// L3, and L3→L0 would be a 3ΔV swing); sparse bursts end at ≤L2.
func (ch *Channel) NeedsPostamble() bool { return ch.lastMTA }
