// Package fault is the link-reliability subsystem: deterministic, seeded
// symbol-error injection on the exact-data bus path, plus layered
// classification of every injected error against the receiver's three
// detection mechanisms —
//
//  1. transition legality: a received step exceeding the 2ΔV cap on a
//     data wire (or an L0 right after an L3 across a sparse seam) is a
//     waveform no compliant transmitter produces;
//  2. code-space membership: SMOREs codebooks are *restricted* — most of
//     the PAM4 sequence space is illegal, so corrupted sparse symbols
//     usually fall outside the codebook (the paper's sparsity buying
//     reliability for free); MTA's inversion coding and the DBI swap's
//     canonical-choice rule reject similarly;
//  3. the GDDR6-inherited EDC channel: a CRC-8 per byte group per burst
//     on a dedicated pin (internal/edc), which catches what the code
//     structure lets through.
//
// Whatever survives all three layers is silent corruption. The injector
// installs as a bus.BurstHook (zero overhead when nil) and its verdicts
// drive the memory controller's replay queue.
//
// Receiver model: the channel hands the hook the columns it transmitted
// and the pre-burst trailing levels; the injector copies the columns,
// applies the error process to the copy, and then decodes it as a
// receiver would, from those trailing levels. Between bursts the
// receiver is assumed to resynchronize its trailing-level tracking to
// the true wire state — postambles and idle parking re-anchor the levels
// in GDDR6X — so errors do not propagate across burst boundaries.
package fault

import (
	"fmt"

	"smores/internal/bus"
	"smores/internal/core"
	"smores/internal/edc"
	"smores/internal/eyesim"
	"smores/internal/mta"
	"smores/internal/pam4"
	"smores/internal/rng"
)

// Model selects the error process.
type Model uint8

// Error processes. All are deterministic for a fixed Config.Seed.
const (
	// ModelUniform corrupts each transmitted symbol independently with
	// probability Rate, replacing it with one of the three other levels
	// uniformly.
	ModelUniform Model = iota
	// ModelEyeBiased corrupts symbols according to the per-level /
	// per-transition slip probabilities the eye model dictates
	// (eyesim.SlipMatrixFromEye): interior levels slip more than extremes
	// and adjacent slips dominate. The noise sigma is derived so the mean
	// symbol-error probability equals Rate.
	ModelEyeBiased
	// ModelBursty is a two-state Gilbert-Elliott process per byte group:
	// a good state with no errors and a bad state (mean dwell BurstLen
	// symbol columns) in which every wire slips one level with
	// probability badSlip — correlated multi-wire, multi-UI errors.
	ModelBursty
)

// String names the model.
func (m Model) String() string {
	switch m {
	case ModelUniform:
		return "uniform"
	case ModelEyeBiased:
		return "eye"
	case ModelBursty:
		return "bursty"
	default:
		return fmt.Sprintf("model(%d)", uint8(m))
	}
}

// ParseModel parses a model name as printed by String.
func ParseModel(s string) (Model, error) {
	switch s {
	case "uniform":
		return ModelUniform, nil
	case "eye":
		return ModelEyeBiased, nil
	case "bursty":
		return ModelBursty, nil
	default:
		return 0, fmt.Errorf("fault: unknown error model %q (want uniform, eye, or bursty)", s)
	}
}

// badSlip is the per-wire corruption probability while a Gilbert-Elliott
// group is in its bad state.
const badSlip = 0.5

// slipT and upT are the bursty model's draw thresholds for badSlip and
// for an adjacent slip's direction (up with probability 0.5).
var slipT, upT = rng.BoolThreshold(badSlip), rng.BoolThreshold(0.5)

// Config builds an injector.
type Config struct {
	// Model selects the error process.
	Model Model
	// Rate is the target mean per-symbol error probability.
	Rate float64
	// Seed makes the process deterministic; any value is valid.
	Seed uint64
	// EDC models the CRC-8 EDC pin: the pin's four CRC symbols per group
	// per burst are themselves exposed to the error process, and the EDC
	// detection layer participates in classification.
	EDC bool
	// BurstLen is ModelBursty's mean bad-state dwell in symbol columns
	// (default 4).
	BurstLen float64
	// EyeSigmaMV overrides ModelEyeBiased's noise sigma (mV). Zero
	// derives sigma from Rate against the worst-case 2ΔV aggressor eye.
	EyeSigmaMV float64
	// Family and MTACodec are the receiver's decoders; they must match
	// the channel's codecs, or clean bursts fail to decode. The injector
	// never encodes: the channel hands it the transmitted columns. Nil
	// selects the same defaults bus.New uses.
	Family   *core.Family
	MTACodec *mta.Codec
}

// Injector implements bus.BurstHook. Not safe for concurrent use: build
// one per channel (the campaign runner builds one per app × point).
type Injector struct {
	cfg      Config
	rng      *rng.RNG
	family   *core.Family
	mtaCodec *mta.Codec
	stats    Stats

	// Model state.
	slip  eyesim.SlipMatrix // ModelEyeBiased
	geBad [bus.Groups]bool  // ModelBursty: per-group Gilbert-Elliott state

	// Bernoulli draws against the model's fixed probabilities, as
	// rng.BoolThreshold thresholds: one integer compare per draw.
	rateT uint64 // Rate, per symbol (ModelUniform)
	pgbT  uint64 // good→bad per column (ModelBursty)
	pbgT  uint64 // bad→good per column (ModelBursty)

	// Scratch (reused across bursts; the injector owns its buffers).
	rxCols  [bus.Groups][]mta.Column
	decoded [bus.BurstBytes]byte
}

// New builds an injector. The returned value satisfies bus.BurstHook.
func New(cfg Config) (*Injector, error) {
	if cfg.Rate < 0 || cfg.Rate >= 1 {
		return nil, fmt.Errorf("fault: error rate %g outside [0, 1)", cfg.Rate)
	}
	if cfg.Family == nil {
		cfg.Family = core.DefaultFamily()
	}
	if cfg.MTACodec == nil {
		cfg.MTACodec = mta.Default()
	}
	if cfg.BurstLen <= 0 {
		cfg.BurstLen = 4
	}
	in := &Injector{
		cfg:      cfg,
		rng:      rng.New(cfg.Seed),
		family:   cfg.Family,
		mtaCodec: cfg.MTACodec,
	}
	switch cfg.Model {
	case ModelUniform:
		in.rateT = rng.BoolThreshold(cfg.Rate)
	case ModelEyeBiased:
		sigma := cfg.EyeSigmaMV
		a, err := eyesim.New(eyesim.DefaultConfig())
		if err != nil {
			return nil, err
		}
		eye := a.WorstCaseAggressorEye(pam4.MaxTransition)
		if sigma <= 0 {
			if cfg.Rate <= 0 {
				return nil, fmt.Errorf("fault: eye-biased model needs Rate > 0 or an explicit EyeSigmaMV")
			}
			sigma, err = eyesim.SigmaForErrorProbFromEye(eye, cfg.Rate)
			if err != nil {
				return nil, err
			}
		}
		in.slip, err = eyesim.SlipMatrixFromEye(eye, sigma)
		if err != nil {
			return nil, err
		}
	case ModelBursty:
		if cfg.Rate >= badSlip {
			return nil, fmt.Errorf("fault: bursty rate %g must stay below the bad-state slip %g", cfg.Rate, badSlip)
		}
		pBG := 1 / cfg.BurstLen
		// Stationary bad fraction πB = rate/badSlip; πB = pGB/(pGB+pBG).
		piB := cfg.Rate / badSlip
		in.pbgT = rng.BoolThreshold(pBG)
		in.pgbT = rng.BoolThreshold(pBG * piB / (1 - piB))
	default:
		return nil, fmt.Errorf("fault: unknown model %d", cfg.Model)
	}
	return in, nil
}

// Stats returns the accumulated injection/detection statistics.
func (in *Injector) Stats() Stats { return in.stats }

// Config returns the (default-filled) configuration.
func (in *Injector) Config() Config { return in.cfg }

// OnBurst implements bus.BurstHook: copy the transmitted columns, apply
// the error process, classify. See the package comment for the receiver
// model.
func (in *Injector) OnBurst(data []byte, codeLength int, pre [bus.Groups]mta.GroupState, tx [bus.Groups][]mta.Column, replay bool) bus.BurstVerdict {
	in.stats.Bursts++
	if replay {
		in.stats.ReplayBursts++
	}
	if len(data) != bus.BurstBytes {
		// Expected mode or a malformed burst: nothing to corrupt.
		return bus.BurstVerdict{}
	}

	// 1. Per-group CRCs ride the EDC pin when enabled.
	var txCRC, rxCRC [bus.Groups]byte
	if in.cfg.EDC {
		crcs, _ := edc.BurstCRCs(data)
		txCRC = crcs
	}

	// 2. Apply the error process to a copy of the transmitted columns in
	// a fixed order (group, column, wire, then the group's EDC pin
	// symbols) so a fixed seed reproduces the exact error pattern.
	injected := 0
	for g := 0; g < bus.Groups; g++ {
		in.rxCols[g] = append(in.rxCols[g][:0], tx[g]...)
		injected += in.corruptGroup(g, in.rxCols[g])
		if in.cfg.EDC {
			sym := edc.CRCSymbols(txCRC[g])
			n := in.corruptPin(g, sym[:])
			injected += n
			in.stats.EDCPinErrors += int64(n)
			rxCRC[g] = edc.CRCFromSymbols(sym)
		}
	}
	in.stats.Symbols += in.eligibleSymbols(tx)
	in.stats.Injected += int64(injected)
	if injected == 0 {
		return bus.BurstVerdict{}
	}
	in.stats.CorruptedBursts++

	// 3. Layered classification, in receiver order.
	verdict := bus.BurstVerdict{Injected: injected}
	switch {
	case in.illegalTransitions(pre):
		in.stats.CaughtLegality++
		verdict.Detected = true
	case !in.decode(codeLength, pre):
		in.stats.CaughtCodebook++
		verdict.Detected = true
	case in.cfg.EDC && !in.crcMatches(rxCRC):
		in.stats.CaughtEDC++
		verdict.Detected = true
	default:
		in.stats.Silent++
		if in.decodedMatches(data) {
			// The corruption cancelled out end to end (e.g. offsetting
			// slips). Undetected, but no data damage: a sub-class of
			// Silent, kept for the coverage report.
			in.stats.Harmless++
		}
	}
	return verdict
}

// eligibleSymbols counts the symbols the error process saw this burst.
func (in *Injector) eligibleSymbols(tx [bus.Groups][]mta.Column) int64 {
	n := int64(0)
	for g := range tx {
		n += int64(len(tx[g])) * mta.GroupWires
	}
	if in.cfg.EDC {
		n += bus.Groups * edc.CRCPinSymbols
	}
	return n
}

// illegalTransitions checks the received stream for waveforms no
// transmitter produces: a step above the 2ΔV cap on any data wire. The
// DBI wire is exempt, as in GDDR6X.
func (in *Injector) illegalTransitions(pre [bus.Groups]mta.GroupState) bool {
	for g := 0; g < bus.Groups; g++ {
		prev := pre[g]
		for _, col := range in.rxCols[g] {
			for w := 0; w < mta.GroupDataWires; w++ {
				if pam4.Delta(prev[w], col[w]) > pam4.MaxTransition {
					return true
				}
			}
			prev = mta.GroupState(col)
		}
	}
	return false
}

// decode runs the receiver's decoder over the received columns, filling
// in.decoded on success. Failure means the stream fell outside the code
// space (sparse codebook membership, MTA sequence validity, DBI
// canonical-swap agreement, or the L0-after-L3 seam rule).
func (in *Injector) decode(codeLength int, pre [bus.Groups]mta.GroupState) bool {
	if codeLength == 0 {
		for g := 0; g < bus.Groups; g++ {
			st := pre[g]
			for beat := 0; beat < 2; beat++ {
				var bc [mta.SeqSymbols]mta.Column
				copy(bc[:], in.rxCols[g][beat*mta.SeqSymbols:])
				data, ok := in.mtaCodec.DecodeGroupBeat(mta.BeatFromColumns(bc), &st)
				if !ok {
					return false
				}
				copy(in.decoded[g*bus.GroupBurstBytes+beat*mta.GroupDataWires:], data[:])
			}
		}
		return true
	}
	sc := in.family.ByLength(codeLength)
	if sc == nil {
		return false
	}
	for g := 0; g < bus.Groups; g++ {
		st := pre[g]
		off := g * bus.GroupBurstBytes
		if _, ok := sc.AppendDecodeGroupBurst(in.decoded[off:off], in.rxCols[g], bus.GroupBurstBytes, &st); !ok {
			return false
		}
	}
	return true
}

// crcMatches recomputes the per-group CRCs over the decoded payload and
// compares them with the (possibly corrupted) received pin bytes.
func (in *Injector) crcMatches(rxCRC [bus.Groups]byte) bool {
	got, ok := edc.BurstCRCs(in.decoded[:])
	return ok && got == rxCRC
}

// decodedMatches reports whether the decoded payload equals the original.
func (in *Injector) decodedMatches(data []byte) bool {
	for i, b := range data {
		if in.decoded[i] != b {
			return false
		}
	}
	return true
}
