package core

import "fmt"

// The opportunistic mechanism: both the DRAM and the host count the idle
// command clocks between consecutive READ/WRITE commands. Because the
// read/write latency (≈30 clocks) far exceeds the gaps worth exploiting,
// both sides know the gap before the data must be encoded, and each picks
// the same codec with no extra pins, commands, or shared metadata.

// CodeSpecification selects how the code length responds to the gap.
type CodeSpecification uint8

const (
	// StaticCode always uses the shortest sparse code (4b3s-3) whenever
	// any gap exists — the paper's simple, most-applicable option.
	StaticCode CodeSpecification = iota
	// VariableCode sizes the code to the detected gap (4b{3..8}s-3).
	VariableCode
)

// String names the specification.
func (c CodeSpecification) String() string {
	switch c {
	case StaticCode:
		return "static"
	case VariableCode:
		return "variable"
	default:
		return fmt.Sprintf("codespec(%d)", uint8(c))
	}
}

// GapDetection selects how long gaps are handled.
type GapDetection uint8

const (
	// Exhaustive gap detection always knows the true gap (it requires the
	// WRITE command to be staged early in the DRAM so a sparse read
	// response can never collide with write data).
	Exhaustive GapDetection = iota
	// Conservative detection watches a fixed window after each command;
	// if no follow-up command arrives within it, the transfer falls back
	// to MTA (a WRITE might follow at any time).
	Conservative
)

// String names the detection policy.
func (d GapDetection) String() string {
	switch d {
	case Exhaustive:
		return "exhaustive"
	case Conservative:
		return "conservative"
	default:
		return fmt.Sprintf("gapdetect(%d)", uint8(d))
	}
}

// DefaultConservativeWindow is the paper's evaluated detection window in
// command clocks.
const DefaultConservativeWindow = 8

// BurstSlotClocks is the dense (MTA) data-bus occupancy of one 32-byte
// transfer in command clocks: 8 UIs at 4 UIs per clock.
const BurstSlotClocks = 2

// Scheme is one point in the paper's design space (Table V).
type Scheme struct {
	Specification CodeSpecification
	Detection     GapDetection
	// WindowClocks is the conservative detection window; zero means
	// DefaultConservativeWindow. Ignored for exhaustive detection.
	WindowClocks int
}

// String renders e.g. "exhaustive/static(4b3s)".
func (s Scheme) String() string {
	return s.Detection.String() + "/" + s.Specification.String()
}

// Window returns the effective detection window in clocks.
func (s Scheme) Window() int {
	if s.WindowClocks > 0 {
		return s.WindowClocks
	}
	return DefaultConservativeWindow
}

// SelectLength picks the output code length for a transfer, or 0 for the
// dense MTA encoding.
//
// gapClocks is the number of idle command clocks that will follow the
// transfer's dense 2-clock slot before the next transfer begins.
// gapKnown states whether that gap was established in time to commit to a
// sparse encoding: for exhaustive detection it is always true; for
// conservative detection it is true only when the *next* command arrived
// within the detection window.
func (s Scheme) SelectLength(gapClocks int, gapKnown bool) int {
	if gapClocks <= 0 {
		return 0
	}
	if s.Detection == Conservative && !gapKnown {
		return 0
	}
	switch s.Specification {
	case StaticCode:
		return MinSparseSymbols
	case VariableCode:
		n := BurstSlotClocks + gapClocks
		if n > MaxSparseSymbols {
			n = MaxSparseSymbols
		}
		if n < MinSparseSymbols {
			n = MinSparseSymbols
		}
		return n
	default:
		panic("core: unknown code specification " + s.Specification.String())
	}
}

// SlotClocks returns the data-bus occupancy in command clocks of a
// transfer encoded with the given code length (0 = MTA).
func SlotClocks(codeLength int) int {
	if codeLength == 0 {
		return BurstSlotClocks
	}
	return codeLength
}

// ExtraLatencyClocks returns the added arrival latency of a sparse
// transfer relative to the dense slot: the decoder must wait for the full
// code before it can produce data (§IV-C).
func ExtraLatencyClocks(codeLength int) int {
	if codeLength <= BurstSlotClocks {
		return 0
	}
	return codeLength - BurstSlotClocks
}

// PaperSchemes returns the three design points of the paper's Table V,
// in table order.
func PaperSchemes() []Scheme {
	return []Scheme{
		{Specification: VariableCode, Detection: Exhaustive},
		{Specification: StaticCode, Detection: Exhaustive},
		{Specification: StaticCode, Detection: Conservative},
	}
}

// GapTracker mirrors the per-device counter both sides keep: the command
// clock of the most recent READ/WRITE. Both the DRAM and the GPU advance
// identical trackers from the same command stream, which is what lets
// them agree on the codec without metadata.
type GapTracker struct {
	lastCmd  int64
	hasPrior bool
}

// Observe records a READ/WRITE command at the given clock and returns the
// idle command clocks between the previous command's dense data slot and
// this command's data slot (0 when back-to-back or for the first command).
func (g *GapTracker) Observe(clock int64) int {
	gap := 0
	if g.hasPrior {
		if d := clock - g.lastCmd - BurstSlotClocks; d > 0 {
			gap = int(d)
		}
	}
	g.lastCmd = clock
	g.hasPrior = true
	return gap
}

// SinceLast returns the clocks elapsed since the last observed command,
// or -1 if none has been observed.
func (g *GapTracker) SinceLast(clock int64) int64 {
	if !g.hasPrior {
		return -1
	}
	return clock - g.lastCmd
}

// Reset clears the tracker (e.g. across refresh or power-down).
func (g *GapTracker) Reset() { *g = GapTracker{} }
