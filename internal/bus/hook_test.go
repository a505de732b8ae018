package bus

import (
	"math"
	"math/rand"
	"testing"

	"smores/internal/core"
	"smores/internal/floats"
	"smores/internal/mta"
	"smores/internal/obs"
	"smores/internal/pam4"
	"smores/internal/rng"
)

// recordingHook captures every dispatch for inspection. It copies the
// transmitted columns into buffers of its own, which it reuses, so a
// warmed-up hook allocates nothing.
type recordingHook struct {
	calls      int
	replays    int
	lastPre    [Groups]mta.GroupState
	lastTx     [Groups][]mta.Column
	lastReplay bool
	verdict    BurstVerdict
}

func (h *recordingHook) OnBurst(data []byte, codeLength int, pre [Groups]mta.GroupState, tx [Groups][]mta.Column, replay bool) BurstVerdict {
	h.calls++
	if replay {
		h.replays++
	}
	h.lastPre = pre
	for g := range tx {
		h.lastTx[g] = append(h.lastTx[g][:0], tx[g]...)
	}
	h.lastReplay = replay
	return h.verdict
}

// drawingHook draws once per transmitted symbol, as the uniform fault
// model does: it walks each group's columns from one draw below its
// threshold to the next with rng.FirstBelow, counting the hits, and
// corrupts nothing.
type drawingHook struct {
	r    *rng.RNG
	t    uint64
	hits int
}

func newDrawingHook(rate float64) *drawingHook {
	return &drawingHook{r: rng.New(1), t: rng.BoolThreshold(rate)}
}

func (h *drawingHook) OnBurst(_ []byte, _ int, _ [Groups]mta.GroupState, tx [Groups][]mta.Column, _ bool) BurstVerdict {
	for g := range tx {
		n := len(tx[g]) * mta.GroupWires
		for i := h.r.FirstBelow(h.t, n); i < n; i += 1 + h.r.FirstBelow(h.t, n-i-1) {
			h.hits++
		}
	}
	return BurstVerdict{}
}

// encodeOracle re-encodes a burst from the pre-burst trailing levels
// with the channel's codecs, independently of the channel's own encode.
func encodeOracle(t *testing.T, ch *Channel, data []byte, codeLength int, pre [Groups]mta.GroupState) [Groups][]mta.Column {
	t.Helper()
	var tx [Groups][]mta.Column
	for g := range tx {
		st := pre[g]
		if codeLength == 0 {
			for beat := 0; beat < 2; beat++ {
				var bytes8 [mta.GroupDataWires]byte
				copy(bytes8[:], data[g*GroupBurstBytes+beat*mta.GroupDataWires:])
				b := ch.MTACodec().EncodeGroupBeat(bytes8, &st)
				for ui := 0; ui < mta.SeqSymbols; ui++ {
					var col mta.Column
					for w := range col {
						col[w] = b[w].At(ui)
					}
					tx[g] = append(tx[g], col)
				}
			}
			continue
		}
		cols, err := ch.Family().ByLength(codeLength).AppendGroupBurst(nil, data[g*GroupBurstBytes:(g+1)*GroupBurstBytes], &st)
		if err != nil {
			t.Fatal(err)
		}
		tx[g] = cols
	}
	return tx
}

// TestHookSeesTransmittedColumns checks that the hook is handed exactly
// what went on the wires: the pre-burst levels, and columns equal to
// re-encoding the payload from them. It covers MTA, every sparse length,
// a replay of each, and a sparse burst right after an MTA burst (the
// level-shift seam).
func TestHookSeesTransmittedColumns(t *testing.T) {
	h := &recordingHook{}
	ch := New(Config{ExactData: true, Fault: h})
	rng := rand.New(rand.NewSource(17))
	check := func(tag string, data []byte, codeLength int, pre [Groups]mta.GroupState, replay bool) {
		t.Helper()
		if h.lastPre != pre || h.lastReplay != replay {
			t.Fatalf("%s: hook saw pre %v replay %v, want %v %v", tag, h.lastPre, h.lastReplay, pre, replay)
		}
		want := encodeOracle(t, ch, data, codeLength, pre)
		for g := range want {
			if len(h.lastTx[g]) != len(want[g]) {
				t.Fatalf("%s group %d: hook saw %d columns, want %d", tag, g, len(h.lastTx[g]), len(want[g]))
			}
			for i := range want[g] {
				if h.lastTx[g][i] != want[g][i] {
					t.Fatalf("%s group %d column %d: hook saw %v, want %v", tag, g, i, h.lastTx[g][i], want[g][i])
				}
			}
		}
	}
	send := func(codeLength int) {
		t.Helper()
		data := randomSector(rng)
		pre := ch.states
		if err := ch.SendBurst(data, codeLength); err != nil {
			t.Fatal(err)
		}
		check("send", data, codeLength, pre, false)
		pre = ch.states
		if err := ch.ReplayBurst(data, codeLength); err != nil {
			t.Fatal(err)
		}
		check("replay", data, codeLength, pre, true)
	}
	lengths := []int{0}
	for cl := core.MinSparseSymbols; cl <= core.MaxSparseSymbols; cl++ {
		if ch.Family().ByLength(cl) == nil {
			t.Fatalf("default family lacks the %d-symbol code", cl)
		}
		lengths = append(lengths, cl)
	}
	seams := 0
	for _, cl := range lengths {
		send(cl)
		// The same length again right after an MTA burst: the burst must
		// start from whatever L3 levels the MTA burst left behind.
		send(0)
		for g := range ch.states {
			for _, l := range ch.states[g][:mta.GroupDataWires] {
				if l == pam4.L3 {
					seams++
				}
			}
		}
		send(cl)
	}
	if seams == 0 {
		t.Fatal("no MTA burst left a data wire at L3: the seam case is vacuous")
	}
	if want := 3 * len(lengths); h.calls != 2*want || h.replays != want {
		t.Fatalf("hook saw %d bursts and %d replays, want %d and %d", h.calls, h.replays, 2*want, want)
	}
}

func TestHookSeesPreBurstState(t *testing.T) {
	h := &recordingHook{verdict: BurstVerdict{Injected: 2, Detected: true}}
	ch := New(Config{ExactData: true, Fault: h})
	data := randomSector(rand.New(rand.NewSource(3)))
	if err := ch.SendBurst(data, 0); err != nil {
		t.Fatal(err)
	}
	if h.calls != 1 {
		t.Fatalf("hook called %d times, want 1", h.calls)
	}
	if h.lastPre != [Groups]mta.GroupState{mta.IdleGroupState(), mta.IdleGroupState()} {
		t.Fatalf("first burst should see idle pre-state, got %v", h.lastPre)
	}
	if got := ch.LastBurstVerdict(); got != h.verdict {
		t.Fatalf("verdict not latched: %+v", got)
	}
}

func TestHookNotDispatchedInExpectedMode(t *testing.T) {
	h := &recordingHook{}
	ch := New(Config{ExactData: false, Fault: h})
	if err := ch.SendBurst(nil, 0); err != nil {
		t.Fatal(err)
	}
	if h.calls != 0 {
		t.Fatal("hook must not fire in expected mode")
	}
}

func TestReplayBurstAccounting(t *testing.T) {
	for _, codeLength := range []int{0, 3, 6} {
		prof := obs.NewProfile()
		h := &recordingHook{}
		ch := New(Config{ExactData: true, Fault: h, Profile: prof, Record: true})
		data := randomSector(rand.New(rand.NewSource(5)))
		if err := ch.SendBurst(data, codeLength); err != nil {
			t.Fatal(err)
		}
		before := ch.Stats()
		if err := ch.ReplayBurst(data, codeLength); err != nil {
			t.Fatal(err)
		}
		ch.PublishProfile()
		after := ch.Stats()

		if after.ReplayBursts != 1 {
			t.Fatalf("len %d: ReplayBursts = %d, want 1", codeLength, after.ReplayBursts)
		}
		if !floats.Eq(after.DataBits, before.DataBits) {
			t.Fatalf("len %d: replay must not add data bits", codeLength)
		}
		if !floats.Eq(after.WireEnergy, before.WireEnergy) || !floats.Eq(after.LogicEnergy, before.LogicEnergy) {
			t.Fatalf("len %d: replay leaked into payload energy", codeLength)
		}
		if after.ReplayEnergy <= before.ReplayEnergy {
			t.Fatalf("len %d: replay burned no energy", codeLength)
		}
		if after.BusyUIs <= before.BusyUIs {
			t.Fatalf("len %d: replay occupied no wire time", codeLength)
		}
		if after.MTABursts != before.MTABursts || after.SparseBursts != before.SparseBursts {
			t.Fatalf("len %d: replay must not count as a payload burst", codeLength)
		}
		if after.Violations != 0 {
			t.Fatalf("len %d: replay produced %d transition violations", codeLength, after.Violations)
		}

		// TotalEnergy includes the replay, and the profiler's PhaseReplay
		// cell group reconciles with Stats.ReplayEnergy exactly.
		if got, want := after.TotalEnergy(), after.WireEnergy+after.PostambleEnergy+after.LogicEnergy+after.ReplayEnergy; !floats.Eq(got, want) {
			t.Fatalf("len %d: TotalEnergy %g != partition %g", codeLength, got, want)
		}
		replayFJ := prof.PhaseEnergy(obs.PhaseReplay)
		if rel := math.Abs(replayFJ-after.ReplayEnergy) / math.Max(after.ReplayEnergy, 1); rel > 1e-9 {
			t.Fatalf("len %d: profile replay phase %g != stats %g", codeLength, replayFJ, after.ReplayEnergy)
		}
		if rel := math.Abs(prof.TotalEnergy()-after.TotalEnergy()) / math.Max(after.TotalEnergy(), 1); rel > 1e-9 {
			t.Fatalf("len %d: profile total %g != stats total %g", codeLength, prof.TotalEnergy(), after.TotalEnergy())
		}

		// The hook observed the retransmission as a replay.
		if h.replays != 1 {
			t.Fatalf("len %d: hook saw %d replays, want 1", codeLength, h.replays)
		}

		// The event record tags the retransmission.
		events := ch.Events()
		last := events[len(events)-1]
		if last.Kind != EventReplay || last.CodeLength != codeLength {
			t.Fatalf("len %d: last event %+v, want EventReplay", codeLength, last)
		}
	}
}

func TestReplayBurstErrors(t *testing.T) {
	ch := New(Config{ExactData: false})
	if err := ch.ReplayBurst(make([]byte, BurstBytes), 0); err == nil {
		t.Fatal("expected-mode replay should error")
	}
	ch = New(Config{ExactData: true})
	if err := ch.ReplayBurst(make([]byte, 3), 0); err == nil {
		t.Fatal("short replay payload should error")
	}
	if err := ch.ReplayBurst(make([]byte, BurstBytes), 17); err == nil {
		t.Fatal("unknown code length should error")
	}
}

func TestReplayAdvancesWireState(t *testing.T) {
	// A replayed burst re-encodes from wherever the wires are, so a
	// subsequent normal burst must still be transition-legal.
	ch := New(Config{ExactData: true})
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		data := randomSector(r)
		if err := ch.SendBurst(data, 3); err != nil {
			t.Fatal(err)
		}
		if err := ch.ReplayBurst(data, 3); err != nil {
			t.Fatal(err)
		}
		if err := ch.SendBurst(data, 0); err != nil {
			t.Fatal(err)
		}
		ch.Postamble()
		ch.Idle(4)
	}
	if v := ch.Stats().Violations; v != 0 {
		t.Fatalf("replay seams produced %d violations", v)
	}
}
