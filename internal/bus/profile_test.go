package bus

import (
	"math"
	"math/rand"
	"testing"

	"smores/internal/core"
	"smores/internal/floats"
	"smores/internal/obs"
)

// publish publishes everything ch has attributed since its last detach
// into its configured profile, as the runners do.
func publish(ch *Channel) { ch.DetachTally().Publish(ch.prof) }

// reconcile asserts the published profiler's totals match the channel's
// stats to float round-off (summation orders differ between the two
// paths, so exact bit equality is not achievable; the bound is a few
// ULPs per accumulated sample). Callers publish first.
func reconcile(t *testing.T, ch *Channel, p *obs.Profile) {
	t.Helper()
	st := ch.Stats()
	checks := []struct {
		name      string
		got, want float64
	}{
		{"total", p.TotalEnergy(), st.TotalEnergy()},
		{"postamble", p.PhaseEnergy(obs.PhasePostamble), st.PostambleEnergy},
		{"logic", p.PhaseEnergy(obs.PhaseLogic), st.LogicEnergy},
		{"wire", p.PhaseEnergy(obs.PhaseMTAPayload) +
			p.PhaseEnergy(obs.PhaseDBIWire) +
			p.PhaseEnergy(obs.PhaseSparsePayload) +
			p.PhaseEnergy(obs.PhaseIdleShift), st.WireEnergy},
	}
	for _, c := range checks {
		tol := 1e-9 * math.Max(math.Abs(c.want), 1)
		if math.Abs(c.got-c.want) > tol {
			t.Errorf("profile %s = %.9g fJ, stats want %.9g fJ (diff %g)",
				c.name, c.got, c.want, c.got-c.want)
		}
	}
}

// driveWorkload runs a deterministic mixed workload through a channel:
// MTA and every sparse code length, with postambles and idles (both
// plain and after bursts) interleaved. With LevelShiftedIdle the device
// goes straight to idle through the shifted seam (the optimized-MTA
// policy); otherwise MTA bursts get the required postamble.
func driveWorkload(t *testing.T, ch *Channel, rng *rand.Rand, bursts int) {
	t.Helper()
	lengths := []int{0, 0, 3, 4, 5, 6, 7, 8, 0, 3}
	for i := 0; i < bursts; i++ {
		cl := lengths[i%len(lengths)]
		if err := ch.SendBurst(randomSector(rng), cl); err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			if ch.NeedsPostamble() && !ch.shiftIdle {
				ch.Postamble()
			}
			ch.Idle(int64(1 + rng.Intn(8)))
		}
	}
	if ch.NeedsPostamble() && !ch.shiftIdle {
		ch.Postamble()
	}
	ch.Idle(4)
}

// TestProfileConservation checks, for every accounting mode × seam
// handling combination, that the energy profiler's cells sum to exactly
// the channel's Stats — total, per phase group, and with no energy in
// impossible places.
func TestProfileConservation(t *testing.T) {
	cases := []struct {
		name  string
		exact bool
		shift bool
	}{
		{"expected", false, false},
		{"expected-shiftidle", false, true},
		{"exact", true, false},
		{"exact-shiftidle", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := obs.NewProfile()
			ch := New(Config{
				ExactData:         tc.exact,
				LevelShiftedIdle:  tc.shift,
				MTALogicPerBit:    -1,
				SparseLogicPerBit: -1,
				Profile:           p,
			})
			rng := rand.New(rand.NewSource(42))
			driveWorkload(t, ch, rng, 400)
			publish(ch)
			reconcile(t, ch, p)

			if ch.Stats().Violations != 0 {
				t.Fatalf("workload produced %d transition violations", ch.Stats().Violations)
			}
			if tc.shift {
				if p.PhaseEnergy(obs.PhaseIdleShift) <= 0 {
					t.Error("level-shifted idle ran but no idle-shift energy attributed")
				}
			} else {
				if e := p.PhaseEnergy(obs.PhaseIdleShift); e != 0 {
					t.Errorf("idle-shift energy %g fJ without LevelShiftedIdle", e)
				}
				if p.PhaseEnergy(obs.PhasePostamble) <= 0 {
					t.Error("postambles ran but no postamble energy attributed")
				}
			}
			for _, ph := range []obs.Phase{obs.PhaseMTAPayload, obs.PhaseDBIWire,
				obs.PhaseSparsePayload, obs.PhaseLogic} {
				if p.PhaseEnergy(ph) <= 0 {
					t.Errorf("phase %v attributed no energy", ph)
				}
			}
		})
	}
}

// TestProfileExactModeDetail checks the per-symbol attribution detail
// only exact mode can produce: real wire/level/transition coordinates,
// seam classes on sparse symbols after L3, and no 3ΔV class anywhere
// but the DBI wires.
func TestProfileExactModeDetail(t *testing.T) {
	p := obs.NewProfile()
	ch := New(Config{ExactData: true, Profile: p})
	rng := rand.New(rand.NewSource(7))
	driveWorkload(t, ch, rng, 300)
	publish(ch)

	s := p.Snapshot()
	if len(s.Cells) == 0 {
		t.Fatal("no cells populated")
	}
	var seamFJ float64
	for _, c := range s.Cells {
		if c.Wire == obs.WireAgg || c.Level == obs.LevelMix || c.Trans == obs.TransMix {
			// Exact mode only uses aggregate cells for logic energy.
			if c.Phase != obs.PhaseLogic {
				t.Errorf("exact mode produced aggregate cell outside logic: %+v", c)
			}
			continue
		}
		if c.Trans == obs.Trans3DV {
			// 3ΔV steps are legal only on the two DBI wires (group-local
			// wire index 8 → channel wires 8 and 17).
			if w := c.Wire % 9; w != 8 {
				t.Errorf("3dv transition attributed to encoded wire %d: %+v", c.Wire, c)
			}
			if c.Phase != obs.PhaseDBIWire {
				t.Errorf("3dv transition outside dbi-wire phase: %+v", c)
			}
		}
		if c.Trans == obs.TransSeam {
			seamFJ += c.FJ
			if c.Phase != obs.PhaseSparsePayload && c.Phase != obs.PhaseDBIWire &&
				c.Phase != obs.PhaseIdleShift {
				t.Errorf("seam class in phase %v: %+v", c.Phase, c)
			}
		}
		if c.Phase == obs.PhasePostamble && c.Level != 1 {
			t.Errorf("postamble symbol at level L%d: %+v", c.Level, c)
		}
	}
	if seamFJ <= 0 {
		t.Error("no seam energy attributed (MTA→sparse seams must level-shift)")
	}
	// Codec roll-up: all burst codecs must appear.
	for _, idx := range []int{obs.ProfileCodecMTA, obs.ProfileCodecIndex(3),
		obs.ProfileCodecIndex(8)} {
		if s.CodecFJ[idx] <= 0 {
			t.Errorf("codec %s attributed no energy", obs.ProfileCodecName(idx))
		}
	}
}

// TestProfileExpectedMatchesNoProfile verifies attaching a profiler
// changes no accounting: the same workload with and without a profile
// must produce bit-identical Stats in both modes.
func TestProfileExpectedMatchesNoProfile(t *testing.T) {
	for _, exact := range []bool{false, true} {
		run := func(p *obs.Profile) Stats {
			ch := New(Config{
				ExactData: exact, LevelShiftedIdle: true,
				MTALogicPerBit: -1, SparseLogicPerBit: -1, Profile: p,
			})
			driveWorkload(t, ch, rand.New(rand.NewSource(99)), 200)
			return ch.Stats()
		}
		with := run(obs.NewProfile())
		without := run(nil)
		if with != without {
			t.Errorf("exact=%v: stats differ with profile attached:\nwith:    %+v\nwithout: %+v",
				exact, with, without)
		}
	}
}

// TestProfileExpectedSparseSplit pins the expected-mode payload/DBI
// split: per sparse codec, the two aggregate phases must sum to the
// codec's closed-form burst energy.
func TestProfileExpectedSparseSplit(t *testing.T) {
	fam := core.DefaultFamily()
	for cl := core.MinSparseSymbols; cl <= core.MaxSparseSymbols; cl++ {
		sc := fam.ByLength(cl)
		if sc == nil {
			continue
		}
		p := obs.NewProfile()
		ch := New(Config{Profile: p})
		if err := ch.SendBurst(nil, cl); err != nil {
			t.Fatal(err)
		}
		publish(ch)
		idx := obs.ProfileCodecIndex(cl)
		var payload, dbiE float64
		for _, c := range p.Snapshot().Cells {
			if c.Codec == idx && c.Wire == obs.WireAgg {
				switch c.Phase {
				case obs.PhaseSparsePayload:
					payload = c.FJ
				case obs.PhaseDBIWire:
					dbiE = c.FJ
				}
			}
		}
		want := Groups * sc.ExpectedBurstEnergy(GroupBurstBytes)
		if got := payload + dbiE; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: payload+dbi = %g, want %g", sc.Name(), got, want)
		}
		if sc.DBI() && dbiE <= 0 {
			t.Errorf("%s: DBI codec attributed no dbi-wire energy", sc.Name())
		}
		wantDBI := Groups * sc.ExpectedBurstDBIEnergy(GroupBurstBytes)
		if math.Abs(dbiE-wantDBI) > 1e-9*math.Max(wantDBI, 1) {
			t.Errorf("%s: dbi energy = %g, want %g", sc.Name(), dbiE, wantDBI)
		}
	}
}

// FuzzProfileConservation drives random burst/idle/postamble schedules
// through both accounting modes and checks conservation each time,
// publishing midway as well as at the end.
func FuzzProfileConservation(f *testing.F) {
	f.Add(int64(1), uint8(8), true)
	f.Add(int64(2), uint8(32), false)
	f.Add(int64(3), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed int64, bursts uint8, shift bool) {
		if bursts == 0 {
			bursts = 1
		}
		rng := rand.New(rand.NewSource(seed))
		for _, exact := range []bool{false, true} {
			p := obs.NewProfile()
			ch := New(Config{
				ExactData: exact, LevelShiftedIdle: shift,
				MTALogicPerBit: -1, SparseLogicPerBit: -1, Profile: p,
			})
			lengths := []int{0, 3, 4, 5, 6, 7, 8}
			for i := 0; i < int(bursts); i++ {
				cl := lengths[rng.Intn(len(lengths))]
				if err := ch.SendBurst(randomSector(rng), cl); err != nil {
					t.Fatal(err)
				}
				if i == int(bursts)/2 {
					publish(ch)
				}
				switch rng.Intn(3) {
				case 0:
					if ch.NeedsPostamble() {
						ch.Postamble()
					}
					ch.Idle(int64(1 + rng.Intn(6)))
				case 1:
					ch.Idle(int64(1 + rng.Intn(6)))
				}
			}
			if ch.NeedsPostamble() {
				ch.Postamble()
			}
			ch.Idle(2)
			publish(ch)
			reconcile(t, ch, p)
		}
	})
}

// TestDetachTallyContract pins when a channel's attribution reaches its
// profile: none of it before the detached tally is published, all of it
// at the publish, nothing from a second detach, and transfers after a
// detach at the next one. A channel without a profile has no tally.
func TestDetachTallyContract(t *testing.T) {
	for _, exact := range []bool{false, true} {
		p := obs.NewProfile()
		ch := New(Config{ExactData: exact, MTALogicPerBit: -1, SparseLogicPerBit: -1, Profile: p})
		rng := rand.New(rand.NewSource(5))
		driveWorkload(t, ch, rng, 60)
		tally := ch.DetachTally()
		if n := len(p.Snapshot().Cells); n != 0 {
			t.Fatalf("exact=%v: %d cells reached the profile before any publish", exact, n)
		}
		if again := ch.DetachTally(); again != nil {
			t.Fatalf("exact=%v: a second detach returned a tally", exact)
		}
		tally.Publish(p)
		reconcile(t, ch, p)
		first := p.Snapshot()
		if len(first.Cells) == 0 {
			t.Fatalf("exact=%v: the publish added no cells", exact)
		}
		driveWorkload(t, ch, rng, 60)
		if later := p.Snapshot(); !sameCells(first, later) {
			t.Fatalf("exact=%v: transfers after a detach reached the profile unpublished", exact)
		}
		publish(ch)
		reconcile(t, ch, p)
	}
	if ch := New(Config{}); ch.DetachTally() != nil {
		t.Fatal("a channel without a profile returned a tally")
	}
}

// sameCells reports whether two snapshots hold the same cells, energies
// bit for bit.
func sameCells(a, b obs.ProfileSnapshot) bool {
	if len(a.Cells) != len(b.Cells) {
		return false
	}
	for i, c := range a.Cells {
		d := b.Cells[i]
		if c.Phase != d.Phase || c.Codec != d.Codec || c.Wire != d.Wire || c.Level != d.Level ||
			c.Trans != d.Trans || !floats.Eq(c.FJ, d.FJ) || c.Count != d.Count {
			return false
		}
	}
	return true
}
