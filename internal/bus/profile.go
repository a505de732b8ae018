package bus

// Energy attribution: the channel's accounting paths feed every
// femtojoule they add to Stats into a private obs.Tally keyed like the
// obs.Profile cells (phase × codec × wire × level × transition class),
// and PublishProfile adds the tally to the channel's Profile.
//
// In exact-data mode each transmitted symbol is attributed individually
// with its real voltage-step class; in expected mode the closed-form
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

import (
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
)

// Profile returns the channel's attached energy profiler (nil when
// attribution is disabled).
func (ch *Channel) Profile() *obs.Profile { return ch.prof }

// profileColumn attributes one transmitted column, symbol by symbol.
// The caller guarantees ch.tally is non-nil. Rules:
//
//   - The group's ninth wire is rerouted to PhaseDBIWire (MSB traffic in
//     MTA bursts, swap metadata in sparse bursts) — except during the
//     idle-shift step, which is a seam event on whatever wires need it.
//   - A sparse or idle-shift symbol following an L3 was rewritten by the
//     level-shifting rule and is classed TransSeam; everything else gets
//     its ΔV magnitude class.
func (ch *Channel) profileColumn(g int, prev *mta.GroupState, col mta.Column, ph obs.Phase, codec int) {
	seamPhase := ph == obs.PhaseSparsePayload || ph == obs.PhaseIdleShift
	base := g * mta.GroupWires
	for w, l := range col {
		wph := ph
		if w == mta.DBIWire && ph != obs.PhaseIdleShift {
			wph = obs.PhaseDBIWire
		}
		tc := obs.TransOfDelta(pam4.Delta(prev[w], l))
		if seamPhase && prev[w] == pam4.L3 {
			tc = obs.TransSeam
		}
		ch.tally.AddSymbol(wph, codec, base+w, int(l), tc, ch.levelE[l])
	}
}

// profilePostamble attributes one group's L1 postamble drive in exact
// mode: per wire, the first UI carries the entry transition from the
// trailing level, the remaining UIs hold L1 (0ΔV). Every wire-UI costs
// the calibrated postamble drive energy. The caller guarantees ch.tally
// is non-nil and passes the pre-postamble trailing state.
func (ch *Channel) profilePostamble(g int, prev *mta.GroupState) {
	e := ch.model.PostambleWireUIEnergy()
	base := g * mta.GroupWires
	for w, l := range prev {
		tc := obs.TransOfDelta(pam4.Delta(l, mta.PostambleLevel))
		ch.tally.AddSymbol(obs.PhasePostamble, obs.ProfileCodecMTA,
			base+w, int(mta.PostambleLevel), tc, e)
		for ui := 1; ui < int(PostambleUIs()); ui++ {
			ch.tally.AddSymbol(obs.PhasePostamble, obs.ProfileCodecMTA,
				base+w, int(mta.PostambleLevel), obs.Trans0DV, e)
		}
	}
}
