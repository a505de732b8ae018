package memctrl

import (
	"fmt"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/gddr6x"
	"smores/internal/obs"
)

// EncodingPolicy selects how transfers are encoded.
type EncodingPolicy uint8

const (
	// BaselineMTA always uses the dense MTA encoding with the standard L1
	// postamble before idle — today's GDDR6X (Fig. 8a's denominator).
	BaselineMTA EncodingPolicy = iota
	// OptimizedMTA is the paper's hypothetical Fig. 8b baseline: MTA with
	// a level-shifting idle transition instead of the driven postamble,
	// i.e. no postamble energy.
	OptimizedMTA
	// SMOREs applies the sparse encodings per the configured Scheme.
	SMOREs
)

// String names the policy.
func (p EncodingPolicy) String() string {
	switch p {
	case BaselineMTA:
		return "baseline-mta"
	case OptimizedMTA:
		return "optimized-mta"
	case SMOREs:
		return "smores"
	default:
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
}

// PagePolicy selects row-buffer management.
type PagePolicy uint8

const (
	// OpenPage keeps rows open until a conflict or refresh (the GPU
	// default; maximizes row hits).
	OpenPage PagePolicy = iota
	// ClosedPage precharges a bank as soon as no queued request targets
	// its open row — a scheduler ablation: more activates, more
	// one-clock gaps, more SMOREs opportunity at higher baseline cost.
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosedPage:
		return "closed-page"
	default:
		return fmt.Sprintf("pagepolicy(%d)", uint8(p))
	}
}

// RefreshPolicy selects the refresh mechanism.
type RefreshPolicy uint8

const (
	// AllBank issues REFab: the whole device blocks for tRFC, creating
	// long data-bus gaps every tREFI.
	AllBank RefreshPolicy = iota
	// PerBank issues round-robin REFpb: only one bank blocks for the
	// shorter tRFCpb while the rest keep serving — fewer long gaps.
	PerBank
)

// String names the policy.
func (p RefreshPolicy) String() string {
	switch p {
	case AllBank:
		return "refab"
	case PerBank:
		return "refpb"
	default:
		return fmt.Sprintf("refresh(%d)", uint8(p))
	}
}

// Config assembles a controller.
type Config struct {
	// Timing is the device timing; zero value selects DefaultTiming.
	Timing gddr6x.Timing
	// Bus configures the energy-accounting channel model.
	Bus bus.Config
	// Policy selects baseline vs SMOREs encoding.
	Policy EncodingPolicy
	// Scheme is the SMOREs design point (used when Policy == SMOREs).
	Scheme core.Scheme
	// Pages selects the row-buffer policy (default OpenPage).
	Pages PagePolicy
	// Refresh selects all-bank vs per-bank refresh (default AllBank).
	Refresh RefreshPolicy

	// ReadQueueCap and WriteQueueCap bound the request queues.
	ReadQueueCap  int
	WriteQueueCap int
	// WriteHi enters write-drain mode; WriteLo leaves it.
	WriteHi int
	WriteLo int

	// ExtraCodecLatency adds pipeline clocks to every data command's
	// latency — the paper's §V-A ablation where the alternate encoder
	// costs an extra cycle.
	ExtraCodecLatency int64

	// Fault installs a link-reliability hook on the owned channel (see
	// bus.BurstHook); it enables the EDC replay machinery below. Requires
	// Bus.ExactData — the hook needs real symbols to corrupt. Nil keeps
	// the link ideal and the replay path compiled out to nil checks.
	Fault bus.BurstHook
	// Replay tunes the EDC-triggered retransmission machinery; only
	// consulted when Fault is installed. Zero value selects defaults.
	Replay ReplayConfig

	// Tracer records cycle-level command/bus/codec events into a ring
	// buffer for Chrome-trace export. Nil disables tracing entirely.
	Tracer *obs.Tracer
	// Channel identifies this controller in trace output (multi-channel
	// runs use 0..N-1).
	Channel int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Timing == (gddr6x.Timing{}) {
		c.Timing = gddr6x.DefaultTiming()
	}
	if c.ReadQueueCap == 0 {
		c.ReadQueueCap = 32
	}
	if c.WriteQueueCap == 0 {
		c.WriteQueueCap = 32
	}
	if c.WriteHi == 0 {
		c.WriteHi = 3 * c.WriteQueueCap / 4
	}
	if c.WriteLo == 0 {
		c.WriteLo = c.WriteQueueCap / 4
	}
	// Exhaustive gap detection relies on WRITE commands being staged early
	// in the DRAM (§V-A) so a stretched read response never collides with
	// write data. The controller models the effect through its data-bus
	// reservation: once a read commits to a sparse length, a write's
	// column command is simply held until the stretched slot clears —
	// write data is buffered, so this costs at most a few clocks.
	return c
}

// validate rejects structurally bad configurations.
func (c Config) validate() error {
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.ReadQueueCap < 1 || c.WriteQueueCap < 1 {
		return fmt.Errorf("memctrl: queue capacities must be positive")
	}
	if c.ReadQueueCap > maxQueueCap || c.WriteQueueCap > maxQueueCap {
		return fmt.Errorf("memctrl: queue capacities %d/%d exceed %d", c.ReadQueueCap, c.WriteQueueCap, maxQueueCap)
	}
	// A high watermark below 1 would enter write mode with no write to
	// drain, so the read/write mode would flip every tick.
	if c.WriteHi < 1 || c.WriteLo >= c.WriteHi || c.WriteHi > c.WriteQueueCap {
		return fmt.Errorf("memctrl: write watermarks lo=%d hi=%d cap=%d inconsistent",
			c.WriteLo, c.WriteHi, c.WriteQueueCap)
	}
	if c.ExtraCodecLatency < 0 {
		return fmt.Errorf("memctrl: negative codec latency")
	}
	if c.Fault != nil {
		if !c.Bus.ExactData {
			return fmt.Errorf("memctrl: fault hook requires exact-data mode")
		}
		if err := c.Replay.withDefaults().validate(); err != nil {
			return err
		}
	}
	return nil
}
