package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// EventType tags a cycle-level trace event. The set covers everything
// the SMOREs mechanism cares about: DRAM command issue, data-bus
// occupancy per codec, the gaps the sparse codes harvest, and the seam
// events (postambles, level-shifted idles) at burst boundaries.
type EventType uint8

// Trace event types.
const (
	EvACT         EventType = iota // ACTIVATE (two command clocks)
	EvRD                           // column READ
	EvWR                           // column WRITE
	EvPRE                          // PRECHARGE
	EvREFab                        // all-bank refresh (tRFC shadow)
	EvREFpb                        // per-bank refresh
	EvBurstMTA                     // dense MTA data burst
	EvBurstSparse                  // sparse SMOREs data burst (Arg = code length)
	EvPostamble                    // driven L1 postamble
	EvGap                          // idle data-bus span (Dur = clocks)
	EvSeam                         // level-shifted idle transition (optimized MTA / sparse seam)
	EvCodecSwitch                  // instant: consecutive bursts changed codec class
	EvQueueDepth                   // counter sample: Arg = read queue, Arg2 = write queue
	evMax
)

// String names the event type.
func (e EventType) String() string {
	switch e {
	case EvACT:
		return "ACT"
	case EvRD:
		return "RD"
	case EvWR:
		return "WR"
	case EvPRE:
		return "PRE"
	case EvREFab:
		return "REFab"
	case EvREFpb:
		return "REFpb"
	case EvBurstMTA:
		return "burst-mta"
	case EvBurstSparse:
		return "burst-sparse"
	case EvPostamble:
		return "postamble"
	case EvGap:
		return "gap"
	case EvSeam:
		return "seam"
	case EvCodecSwitch:
		return "codec-switch"
	case EvQueueDepth:
		return "queue-depth"
	default:
		return fmt.Sprintf("event(%d)", uint8(e))
	}
}

// track returns the Chrome-trace thread lane an event renders on: lane 0
// carries command-bus events, lane 1 the data bus, lane 2 seam/codec
// annotations, lane 3 counters.
func (e EventType) track() int {
	switch e {
	case EvACT, EvRD, EvWR, EvPRE, EvREFab, EvREFpb:
		return 0
	case EvBurstMTA, EvBurstSparse, EvGap, EvPostamble:
		return 1
	case EvSeam, EvCodecSwitch:
		return 2
	default:
		return 3
	}
}

// TraceEvent is one recorded simulator event. Cycle and Dur are in
// command clocks.
type TraceEvent struct {
	Cycle   int64
	Dur     int64
	Type    EventType
	Channel int32
	Bank    int32 // -1 when not bank-scoped
	Arg     int64 // code length, gap clocks, queue depth, ...
	Arg2    int64
}

// Tracer records TraceEvents into a fixed-capacity ring buffer: tracing
// a multi-minute run keeps the most recent window instead of growing
// without bound. A nil *Tracer is fully inert — every method nil-checks
// first — so instrumented code pays one predictable branch when tracing
// is off.
type Tracer struct {
	mu   sync.Mutex
	buf  []TraceEvent
	head int    // slot of the oldest retained event once buf is full
	next uint64 // total events ever emitted
}

// DefaultTraceCapacity bounds the ring buffer when 0 is requested.
const DefaultTraceCapacity = 1 << 16

// NewTracer builds a tracer holding the most recent capacity events
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{buf: make([]TraceEvent, 0, capacity)}
}

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Capacity returns how many events the ring retains.
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return cap(t.buf)
}

// Emit records one event.
func (t *Tracer) Emit(e TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emit(e)
	t.mu.Unlock()
}

// emit records one event; t.mu is held.
func (t *Tracer) emit(e TraceEvent) {
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.head] = e
		if t.head++; t.head == len(t.buf) {
			t.head = 0
		}
	}
	t.next++
}

// Append adds src's events to t as though they had been emitted into t
// after t's own, in src's order, and counts them in Emitted and
// Dropped. When src's capacity is at least t's, t then retains exactly
// what those emissions would have left; when a smaller src has dropped
// events, t keeps only src's retained ones. A runner can give each
// worker a private tracer of t's capacity and append them in a fixed
// order, so the trace does not depend on the workers' timing. src must
// no longer be emitted into; appending t to itself does nothing.
func (t *Tracer) Append(src *Tracer) {
	if t == nil || src == nil || t == src {
		return
	}
	events := src.Events()
	emitted := src.Emitted()
	t.mu.Lock()
	defer t.mu.Unlock()
	if lost := emitted - uint64(len(events)); lost > 0 {
		// src's ring wrapped: every event t retains is older than the
		// ones src dropped.
		t.buf, t.head = t.buf[:0], 0
		t.next += lost
	}
	for _, e := range events {
		t.emit(e)
	}
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.buf)
}

// Emitted returns the total number of events ever emitted (including
// ones the ring has since overwritten).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Dropped returns how many emitted events the ring no longer retains.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next - uint64(len(t.buf))
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, len(t.buf))
	out = append(out, t.buf[t.head:]...)
	return append(out, t.buf[:t.head]...)
}

// chromeEvent is one Chrome trace-event JSON object (the "JSON Array
// Format" Perfetto and chrome://tracing both load).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	S    string         `json:"s,omitempty"` // instant scope
}

// laneNames names the trace lanes in the viewer, indexed by lane.
var laneNames = [...]string{"command bus", "data bus", "codec seams", "counters"}

// WriteChromeTrace renders the retained events as Chrome trace-event
// JSON: one process per channel, four named threads (command bus, data
// bus, codec seams, counters). One command clock maps to one microsecond
// of viewer time so burst schedules are legible at default zoom.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return nil
	}
	events := t.Events()
	out := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		Metadata        map[string]any `json:"otherData,omitempty"`
	}{
		DisplayTimeUnit: "ms",
		Metadata: map[string]any{
			"source":        "smores internal/obs tracer",
			"clock_unit_us": 1,
			"emitted":       t.Emitted(),
			"dropped":       t.Dropped(),
		},
	}

	// Metadata events naming each channel's lanes.
	channels := map[int32]bool{}
	for _, e := range events {
		channels[e.Channel] = true
	}
	chSorted := make([]int, 0, len(channels))
	for ch := range channels {
		chSorted = append(chSorted, int(ch))
	}
	sort.Ints(chSorted)
	for _, ch := range chSorted {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", PID: ch, Cat: "__metadata",
			Args: map[string]any{"name": fmt.Sprintf("channel %d", ch)},
		})
		for tid, lane := range laneNames {
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", PID: ch, TID: tid, Cat: "__metadata",
				Args: map[string]any{"name": lane},
			})
		}
	}

	for _, e := range events {
		ce := chromeEvent{
			Name: e.Type.String(),
			Cat:  category(e.Type),
			TS:   float64(e.Cycle),
			PID:  int(e.Channel),
			TID:  e.Type.track(),
		}
		switch e.Type {
		case EvQueueDepth:
			ce.Ph = "C"
			ce.Name = "queues"
			ce.Args = map[string]any{"read": e.Arg, "write": e.Arg2}
		case EvCodecSwitch:
			ce.Ph = "i"
			ce.S = "t"
			ce.Args = map[string]any{"to_code_length": e.Arg}
		default:
			ce.Ph = "X"
			ce.Dur = float64(e.Dur)
			if ce.Dur <= 0 {
				ce.Dur = 1
			}
			args := map[string]any{}
			if e.Bank >= 0 {
				args["bank"] = e.Bank
			}
			switch e.Type {
			case EvBurstSparse:
				args["code_length"] = e.Arg
			case EvGap:
				args["gap_clocks"] = e.Arg
			}
			if len(args) > 0 {
				ce.Args = args
			}
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func category(e EventType) string {
	switch e.track() {
	case 0:
		return "cmd"
	case 1:
		return "data"
	case 2:
		return "seam"
	default:
		return "counter"
	}
}
