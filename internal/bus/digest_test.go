package bus

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"smores/internal/obs"
)

// Exact-mode attribution digests: SHA-256 over every published profile
// cell (key, FJ bits, count), the float bits and counters of Stats, and
// Violations, for the fixed schedule of driveDigestSchedule under both
// seam policies. They pin the exact-mode accounting and attribution
// bit for bit: a change to the order in which any float sum is taken,
// or to any symbol's cell, moves them.
const (
	exactDigestProfiled = "e20eb69f6bc415d49556921aca8f4eb0a97d0e6750f7f3c00c2f9d401dc369b0"
	exactDigestBare     = "6b4eba8afd472ee38057d21f5953f9b410cd82c992a8c586783a554e5cffc619"
)

// TestExactAttributionDigest drives a fixed seeded exact-mode schedule
// (MTA, every sparse length, replays of both kinds, postambles, plain
// idles, idles without a required postamble and level-shifted idles)
// through a channel with and without a profile, and holds each run to
// its recorded digest.
func TestExactAttributionDigest(t *testing.T) {
	for _, c := range []struct {
		name    string
		profile bool
		want    string
	}{
		{"profiled", true, exactDigestProfiled},
		{"bare", false, exactDigestBare},
	} {
		h := sha256.New()
		for _, shift := range []bool{false, true} {
			var p *obs.Profile
			if c.profile {
				p = obs.NewProfile()
			}
			ch := New(Config{
				ExactData: true, LevelShiftedIdle: shift,
				MTALogicPerBit: -1, SparseLogicPerBit: -1, Profile: p,
			})
			kinds := driveDigestSchedule(t, ch, rand.New(rand.NewSource(20261018)), 600)
			if kinds.mtaReplays == 0 || kinds.sparseReplays == 0 {
				t.Fatalf("%s shift=%v: schedule replayed %d MTA and %d sparse bursts, want both",
					c.name, shift, kinds.mtaReplays, kinds.sparseReplays)
			}
			st := ch.Stats()
			if !shift && st.Violations == 0 {
				t.Fatalf("%s: the skipped postambles produced no violations", c.name)
			}
			if shift && (st.Violations != 0 || st.Postambles != 0) {
				t.Fatalf("%s shift: %d violations and %d postambles, want none",
					c.name, st.Violations, st.Postambles)
			}
			if c.profile {
				publish(ch)
				reconcile(t, ch, p)
				hashCells(h, p.Snapshot().Cells)
			}
			hashStats(h, st)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: exact-mode digest %s, want %s", c.name, got, c.want)
		}
	}
}

type digestKinds struct{ mtaReplays, sparseReplays int }

// driveDigestSchedule runs bursts random transfers through ch. Every
// seventh burst is replayed; after a burst the bus either carries on,
// idles (through a postamble where one is due, or through the
// level-shifted seam on a LevelShiftedIdle channel), idles without the
// due postamble, or drives a postamble straight into the next burst.
// Halfway through it publishes the channel's profile, if any.
func driveDigestSchedule(t *testing.T, ch *Channel, rng *rand.Rand, bursts int) digestKinds {
	t.Helper()
	var k digestKinds
	lengths := []int{0, 3, 4, 5, 6, 7, 8}
	for i := 0; i < bursts; i++ {
		cl := lengths[rng.Intn(len(lengths))]
		data := randomSector(rng)
		if err := ch.SendBurst(data, cl); err != nil {
			t.Fatal(err)
		}
		if i%7 == 3 {
			if err := ch.ReplayBurst(data, cl); err != nil {
				t.Fatal(err)
			}
			if cl == 0 {
				k.mtaReplays++
			} else {
				k.sparseReplays++
			}
		}
		if i == bursts/2 {
			publish(ch)
		}
		switch rng.Intn(5) {
		case 0, 1:
			if ch.NeedsPostamble() && !ch.shiftIdle {
				ch.Postamble()
			}
			ch.Idle(int64(1 + rng.Intn(8)))
		case 2:
			// Idle without the due postamble: MTA bursts that end at L3
			// take a 3ΔV step to L0 unless the seam is level-shifted.
			ch.Idle(int64(1 + rng.Intn(3)))
		case 3:
			if ch.NeedsPostamble() && !ch.shiftIdle {
				ch.Postamble()
			}
		}
	}
	if ch.NeedsPostamble() && !ch.shiftIdle {
		ch.Postamble()
	}
	ch.Idle(4)
	return k
}

func hashCells(h hash.Hash, cells []obs.ProfileCell) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(len(cells)))
	for _, c := range cells {
		put(uint64(c.Phase))
		put(uint64(c.Codec))
		put(uint64(c.Wire))
		put(uint64(c.Level))
		put(uint64(c.Trans))
		put(math.Float64bits(c.FJ))
		put(uint64(c.Count))
	}
}

func hashStats(h hash.Hash, s Stats) {
	var b [8]byte
	for _, v := range []uint64{
		math.Float64bits(s.DataBits), math.Float64bits(s.WireEnergy),
		math.Float64bits(s.PostambleEnergy), math.Float64bits(s.LogicEnergy),
		math.Float64bits(s.ReplayEnergy),
		uint64(s.MTABursts), uint64(s.SparseBursts), uint64(s.ReplayBursts),
		uint64(s.Postambles), uint64(s.BusyUIs), uint64(s.IdleUIs), uint64(s.Violations),
	} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}
