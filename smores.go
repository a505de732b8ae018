// Package smores is a library-grade reproduction of "Saving PAM4 Bus
// Energy with SMOREs: Sparse Multi-level Opportunistic Restricted
// Encodings" (HPCA 2022).
//
// It provides:
//
//   - a calibrated electrical/energy model of the GDDR6X PAM4 interface
//     (pam4 driver network, per-symbol energies, postamble cost);
//   - the MTA baseline codec and the SMOREs sparse codecs (4b{3..8}s at
//     two or three levels, restricted DBI, seam level shifting);
//   - the opportunistic gap-detection mechanism (static/variable code
//     specification × exhaustive/conservative detection);
//   - a cycle-level GPU memory-system simulator (sectored LLC, FR-FCFS
//     GDDR6X controller, 42 calibrated workload models) that regenerates
//     the paper's evaluation (Figures 5–8, Tables IV–V);
//   - a hardware-cost estimator reproducing the paper's Figure 7.
//
// The facade re-exports the main types; the full API lives in the
// internal packages and is exercised by the examples and commands.
package smores

import (
	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/memctrl"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/report"
	"smores/internal/workload"
)

// Re-exported core types. Aliases keep the internal packages as the
// single source of truth while letting users write smores.Scheme etc.
type (
	// Level is one PAM4 signal level (L0 cheapest, L3 most expensive).
	Level = pam4.Level
	// Seq is a packed PAM4 symbol sequence.
	Seq = pam4.Seq
	// EnergyModel maps levels to femtojoules per unit interval.
	EnergyModel = pam4.EnergyModel
	// DriverConfig is the PAM4 output-stage electrical network.
	DriverConfig = pam4.DriverConfig
	// MTACodec is the GDDR6X baseline encoder/decoder.
	MTACodec = mta.Codec
	// Family is the SMOREs sparse codec family indexed by code length.
	Family = core.Family
	// SparseCodec encodes group bursts with one sparse codebook.
	SparseCodec = core.SparseGroupCodec
	// Scheme is one SMOREs design point (code specification × gap
	// detection).
	Scheme = core.Scheme
	// Channel is the 18-wire data-channel energy model.
	Channel = bus.Channel
	// ChannelStats reports channel energy and occupancy.
	ChannelStats = bus.Stats
	// Workload is one application traffic model.
	Workload = workload.Profile
	// RunSpec selects a simulation configuration.
	RunSpec = report.RunSpec
	// AppResult is one (application, policy) simulation outcome.
	AppResult = report.AppResult
	// FleetResult is a whole-fleet simulation outcome.
	FleetResult = report.FleetResult
)

// Scheme constants (the paper's design space).
const (
	StaticCode   = core.StaticCode
	VariableCode = core.VariableCode
	Exhaustive   = core.Exhaustive
	Conservative = core.Conservative
)

// Encoding policies for simulations.
const (
	BaselineMTA  = memctrl.BaselineMTA
	OptimizedMTA = memctrl.OptimizedMTA
	SMOREs       = memctrl.SMOREs
)

// DefaultEnergyModel returns the paper-calibrated GDDR6X PAM4 energy
// model (528.8 fJ/bit raw PAM4, 961/1538/1730 fJ for L1/L2/L3).
func DefaultEnergyModel() *EnergyModel { return pam4.DefaultEnergyModel() }

// NewMTACodec builds the standard GDDR6X MTA codec.
func NewMTACodec(m *EnergyModel) *MTACodec { return mta.New(m) }

// DefaultFamily builds the paper's preferred sparse family: 3-level
// codes with restricted DBI, paper-faithful constructions.
func DefaultFamily() *Family { return core.DefaultFamily() }

// NewChannel builds a data-channel model with default codecs, in
// expected-energy mode. For exact-data accounting use the bus package
// directly.
func NewChannel() *Channel { return bus.New(bus.Config{}) }

// Fleet returns the 42 evaluated application models.
func Fleet() []Workload { return workload.Fleet() }

// WorkloadByName looks up one of the 42 applications.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// RunApp simulates one application under one configuration, over
// RunSpec.Channels interleaved channels (one when zero).
func RunApp(w Workload, spec RunSpec) (AppResult, error) { return report.RunApp(w, spec) }

// RunFleet simulates all 42 applications under one configuration, at
// any channel count.
func RunFleet(spec RunSpec) (FleetResult, error) { return report.RunFleet(spec) }

// PaperSchemes returns the three Table V design points.
func PaperSchemes() []Scheme { return core.PaperSchemes() }
