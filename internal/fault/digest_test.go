package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"smores/internal/bus"
)

// Fault digests: SHA-256 over the columns the receiver saw and the
// verdict of every burst of driveFaultSchedule, then the injector's
// Stats, for each error model with the EDC pin off and on. They pin
// every model's draws bit for bit: a change to which symbols a seed
// corrupts, to what they become, or to how a burst is classified moves
// them.
var faultDigests = map[string]string{
	"uniform/edc=false": "126c2ca743b4c84b65a8d9a9abd0d197510c8dff0d07b64b15d07d2868ce10a7",
	"uniform/edc=true":  "257614dec565d3eb15b8f4b4bc0f926fbdd40589984de3b6a5effaaf37dc9764",
	"eye/edc=false":     "ad79d231ea31682c31f016ca061048f26f67a67a0a1d2b3e1b473d775609a17d",
	"eye/edc=true":      "245a2a82e3f9df6b59b83aac5ddaaba8b36aee9e5043e34bd1167a374cbbaf03",
	"bursty/edc=false":  "e3ade15870e76515871dcce01fc34f77eb467eb5e217b89fab209b935afdf32e",
	"bursty/edc=true":   "3cbdecda9562e81281f0595c6fe87cc74957082ab286b6537c8fed306a3395d9",
}

// digestRate is high enough that every run reaches every detection
// layer: transition legality, code-space membership and, with the EDC
// pin, the CRC; without it some corruption goes silent.
const digestRate = 0.01

// TestFaultDigest drives a fixed seeded exact-mode schedule (MTA, every
// sparse length, replays of detected bursts) through uniform,
// eye-biased and bursty injectors, with and without the EDC pin, and
// holds each run to its recorded digest.
func TestFaultDigest(t *testing.T) {
	for _, model := range []Model{ModelUniform, ModelEyeBiased, ModelBursty} {
		for _, edcOn := range []bool{false, true} {
			name := fmt.Sprintf("%v/edc=%v", model, edcOn)
			in, err := New(Config{Model: model, Rate: digestRate, Seed: 20261018, EDC: edcOn})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			driveFaultSchedule(t, in, h, rand.New(rand.NewSource(20261018)), 500)
			s := in.Stats()
			if !s.Conserves() {
				t.Fatalf("%s: conservation violated: %+v", name, s)
			}
			if s.ReplayBursts == 0 || s.CaughtLegality == 0 || s.CaughtCodebook == 0 ||
				(edcOn && s.CaughtEDC == 0) || (!edcOn && s.Silent == 0) {
				t.Fatalf("%s: the schedule missed a layer: %+v", name, s)
			}
			hashFaultStats(h, s)
			if got := hex.EncodeToString(h.Sum(nil)); got != faultDigests[name] {
				t.Errorf("%s: fault digest %s, want %s", name, got, faultDigests[name])
			}
		}
	}
}

// driveFaultSchedule sends bursts random transfers at random code
// lengths through an exact-data channel with in installed, replaying a
// detected burst up to twice, as the controller's replay queue would.
// After each transmission it hashes the verdict and the received
// columns; between bursts the bus carries on, idles, or drives a
// postamble.
func driveFaultSchedule(t *testing.T, in *Injector, h hash.Hash, rng *rand.Rand, bursts int) {
	t.Helper()
	ch := bus.New(bus.Config{ExactData: true, Fault: in})
	lengths := []int{0, 3, 4, 5, 6, 7, 8}
	data := make([]byte, bus.BurstBytes)
	for i := 0; i < bursts; i++ {
		cl := lengths[rng.Intn(len(lengths))]
		rng.Read(data)
		if err := ch.SendBurst(data, cl); err != nil {
			t.Fatal(err)
		}
		hashBurst(h, in, ch.LastBurstVerdict())
		for try := 0; try < 2 && ch.LastBurstVerdict().Detected; try++ {
			if err := ch.ReplayBurst(data, cl); err != nil {
				t.Fatal(err)
			}
			hashBurst(h, in, ch.LastBurstVerdict())
		}
		switch rng.Intn(3) {
		case 0:
			if ch.NeedsPostamble() {
				ch.Postamble()
			}
			ch.Idle(int64(1 + rng.Intn(8)))
		case 1:
			if ch.NeedsPostamble() {
				ch.Postamble()
			}
		}
	}
}

func hashBurst(h hash.Hash, in *Injector, v bus.BurstVerdict) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v.Injected))
	if v.Detected {
		b[7] = 1
	}
	h.Write(b[:])
	for g := range in.rxCols {
		for _, col := range in.rxCols[g] {
			for _, l := range col {
				h.Write([]byte{byte(l)})
			}
		}
	}
}

func hashFaultStats(h hash.Hash, s Stats) {
	var b [8]byte
	for _, v := range []int64{
		s.Bursts, s.ReplayBursts, s.Injected, s.Symbols, s.EDCPinErrors,
		s.CorruptedBursts, s.CaughtLegality, s.CaughtCodebook, s.CaughtEDC,
		s.Silent, s.Harmless,
	} {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
