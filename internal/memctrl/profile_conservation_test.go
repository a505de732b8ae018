package memctrl

import (
	"math"
	"testing"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/obs"
	"smores/internal/rng"
)

// TestProfileConservationAllPolicies drives real scheduling (arrival
// streams, postambles, level-shift seams, refresh gaps) through every
// policy × scheme in both accounting modes and checks that the energy
// profiler's cells sum to the channel's Stats.TotalEnergy — the
// conservation property the attribution layer guarantees.
func TestProfileConservationAllPolicies(t *testing.T) {
	schemes := []Config{
		{Policy: BaselineMTA},
		{Policy: OptimizedMTA},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Exhaustive}},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.VariableCode, Detection: core.Exhaustive}},
		{Policy: SMOREs, Scheme: core.Scheme{Specification: core.StaticCode, Detection: core.Conservative}},
	}
	for si, base := range schemes {
		for _, exact := range []bool{false, true} {
			cfg := base
			prof := obs.NewProfile()
			cfg.Bus = bus.Config{ExactData: exact, Profile: prof,
				MTALogicPerBit: -1, SparseLogicPerBit: -1}
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(uint64(7 + si))
			var arrivals []arrival
			at := int64(0)
			for i := 0; i < 800; i++ {
				at += int64(r.Intn(10))
				kind := Read
				if r.Bool(0.3) {
					kind = Write
				}
				arrivals = append(arrivals, arrival{at: at, req: &Request{
					ID: uint64(i), Kind: kind, Sector: uint64(r.Intn(1 << 20)),
				}})
			}
			feed(t, c, arrivals)
			c.DetachTally().Publish(prof)

			want := c.BusStats().TotalEnergy()
			got := prof.TotalEnergy()
			tol := 1e-9 * math.Max(want, 1)
			if math.Abs(got-want) > tol {
				t.Errorf("%s exact=%v: profile %.9g fJ vs stats %.9g fJ (diff %g)",
					c.Describe(), exact, got, want, got-want)
			}
			if want == 0 {
				t.Fatalf("%s exact=%v: no energy accounted", c.Describe(), exact)
			}
			// Phase partition must mirror the stats breakdown too.
			st := c.BusStats()
			wire := prof.PhaseEnergy(obs.PhaseMTAPayload) +
				prof.PhaseEnergy(obs.PhaseDBIWire) +
				prof.PhaseEnergy(obs.PhaseSparsePayload) +
				prof.PhaseEnergy(obs.PhaseIdleShift)
			if math.Abs(wire-st.WireEnergy) > tol {
				t.Errorf("%s exact=%v: wire phases %.9g vs stats %.9g",
					c.Describe(), exact, wire, st.WireEnergy)
			}
			if pa := prof.PhaseEnergy(obs.PhasePostamble); math.Abs(pa-st.PostambleEnergy) > tol {
				t.Errorf("%s exact=%v: postamble phase %.9g vs stats %.9g",
					c.Describe(), exact, pa, st.PostambleEnergy)
			}
			if lg := prof.PhaseEnergy(obs.PhaseLogic); math.Abs(lg-st.LogicEnergy) > tol {
				t.Errorf("%s exact=%v: logic phase %.9g vs stats %.9g",
					c.Describe(), exact, lg, st.LogicEnergy)
			}
			if rp := prof.PhaseEnergy(obs.PhaseReplay); math.Abs(rp-st.ReplayEnergy) > tol {
				t.Errorf("%s exact=%v: replay phase %.9g vs stats %.9g (must be 0 on a clean link)",
					c.Describe(), exact, rp, st.ReplayEnergy)
			}
		}
	}
}
