package obs

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(8)
	for i := 0; i < 20; i++ {
		tr.Emit(TraceEvent{Cycle: int64(i), Type: EvRD})
	}
	if tr.Len() != 8 {
		t.Fatalf("Len = %d, want 8", tr.Len())
	}
	if tr.Emitted() != 20 {
		t.Fatalf("Emitted = %d, want 20", tr.Emitted())
	}
	if tr.Dropped() != 12 {
		t.Fatalf("Dropped = %d, want 12", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events len = %d, want 8", len(evs))
	}
	// The retained window must be the most recent events, in order.
	for i, e := range evs {
		if want := int64(12 + i); e.Cycle != want {
			t.Fatalf("event %d cycle = %d, want %d (ring must rotate chronologically)", i, e.Cycle, want)
		}
	}
}

// Appending private tracers leaves a tracer as emitting their events
// into it directly would: the same retained events in the same order,
// the same Emitted and Dropped, and the same ring for later emits.
func TestTracerAppendMatchesEmit(t *testing.T) {
	for _, c := range []struct {
		name                  string
		first, parts, perPart int
	}{
		{"no-ring-wraps", 2, 2, 2},
		{"target-wraps", 3, 4, 5},
		{"parts-wrap", 5, 3, 20},
	} {
		t.Run(c.name, func(t *testing.T) {
			want, got := NewTracer(8), NewTracer(8)
			var cycle int64
			emit := func(trs ...*Tracer) {
				for _, tr := range trs {
					tr.Emit(TraceEvent{Cycle: cycle, Type: EvRD})
				}
				cycle++
			}
			for i := 0; i < c.first; i++ {
				emit(want, got)
			}
			for p := 0; p < c.parts; p++ {
				part := NewTracer(got.Capacity())
				for i := 0; i < c.perPart; i++ {
					emit(want, part)
				}
				got.Append(part)
			}
			for i := 0; i < 3; i++ {
				emit(want, got)
			}
			if got.Emitted() != want.Emitted() || got.Dropped() != want.Dropped() {
				t.Fatalf("emitted/dropped %d/%d, want %d/%d", got.Emitted(), got.Dropped(), want.Emitted(), want.Dropped())
			}
			if g, w := got.Events(), want.Events(); !slices.Equal(g, w) {
				t.Fatalf("retained %v, want %v", g, w)
			}
		})
	}

	// A smaller ring that wrapped lost events the target would have
	// kept: the target keeps only its retained ones, counting the rest
	// as dropped.
	got, part := NewTracer(8), NewTracer(4)
	got.Emit(TraceEvent{Cycle: -1})
	for i := int64(0); i < 6; i++ {
		part.Emit(TraceEvent{Cycle: i})
	}
	got.Append(part)
	got.Append(got)
	if got.Emitted() != 7 || got.Dropped() != 3 || !slices.Equal(got.Events(), part.Events()) {
		t.Fatalf("after a wrapped smaller ring: emitted %d, dropped %d, events %v; want 7, 3, %v",
			got.Emitted(), got.Dropped(), got.Events(), part.Events())
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(TraceEvent{})
	if tr.Enabled() || tr.Len() != 0 {
		t.Fatalf("nil tracer must be inert")
	}
}

func TestTracerEventsIsCopy(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit(TraceEvent{Cycle: 1, Type: EvACT})
	evs := tr.Events()
	evs[0].Cycle = 99
	if tr.Events()[0].Cycle != 1 {
		t.Fatalf("Events must return an independent copy")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(64)
	emit := []TraceEvent{
		{Cycle: 0, Dur: 2, Type: EvACT, Bank: 3, Arg: 17},
		{Cycle: 2, Dur: 1, Type: EvRD, Bank: 3},
		{Cycle: 3, Dur: 1, Type: EvWR, Bank: 1},
		{Cycle: 4, Dur: 1, Type: EvPRE, Bank: 3},
		{Cycle: 10, Dur: 160, Type: EvREFab, Bank: -1},
		{Cycle: 200, Dur: 8, Type: EvBurstMTA, Bank: 2},
		{Cycle: 210, Dur: 12, Type: EvBurstSparse, Bank: 2, Arg: 12},
		{Cycle: 222, Dur: 1, Type: EvPostamble, Bank: -1},
		{Cycle: 223, Dur: 5, Type: EvGap, Bank: -1, Arg: 5},
		{Cycle: 223, Type: EvSeam, Bank: -1},
		{Cycle: 210, Type: EvCodecSwitch, Bank: -1, Arg: 0, Arg2: 12},
		{Cycle: 2, Type: EvQueueDepth, Bank: -1, Arg: 4, Arg2: 1},
	}
	for _, e := range emit {
		tr.Emit(e)
	}
	var b bytes.Buffer
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace must be valid JSON: %v", err)
	}
	names := map[string]bool{}
	phases := map[string]bool{}
	for _, e := range doc.TraceEvents {
		phases[e.Ph] = true
		if e.Ph != "M" { // metadata names the tracks, not the events
			names[e.Name] = true
		}
	}
	// The acceptance bar: at least 6 distinct simulator event types.
	if len(names) < 6 {
		t.Fatalf("chrome trace has %d distinct event names, want >= 6: %v", len(names), names)
	}
	for _, ph := range []string{"X", "M", "C", "i"} {
		if !phases[ph] {
			t.Fatalf("chrome trace missing phase %q (have %v)", ph, phases)
		}
	}
}

// Writing one tracer's trace again must give the same bytes: the
// metadata naming each channel's lanes comes in lane order.
func TestWriteChromeTraceStable(t *testing.T) {
	tr := NewTracer(64)
	for ch := int32(0); ch < 4; ch++ {
		tr.Emit(TraceEvent{Cycle: int64(ch), Dur: 1, Type: EvRD, Bank: 1, Channel: ch})
	}
	var first bytes.Buffer
	if err := tr.WriteChromeTrace(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var again bytes.Buffer
		if err := tr.WriteChromeTrace(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), again.Bytes()) {
			t.Fatalf("write %d differs from the first", i+1)
		}
	}
}

func TestEventTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for e := EvACT; e <= EvQueueDepth; e++ {
		s := e.String()
		if s == "" || seen[s] {
			t.Fatalf("event type %d has empty or duplicate name %q", e, s)
		}
		seen[s] = true
	}
}
