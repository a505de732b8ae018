package bus

// Energy attribution: the channel's accounting paths feed every
// femtojoule they add to Stats into a private obs.Tally keyed like the
// obs.Profile cells (phase × codec × wire × level × transition class),
// and PublishProfile adds the tally to the channel's Profile.
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

import "smores/internal/obs"

// Profile returns the channel's attached energy profiler (nil when
// attribution is disabled).
func (ch *Channel) Profile() *obs.Profile { return ch.prof }
