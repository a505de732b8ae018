package bus

// Fault-injection hook: the link-reliability subsystem (internal/fault)
// observes every transferred burst through a BurstHook installed at
// channel construction, handed the very columns the channel encoded and
// accounted, so the hook never encodes a burst again. The hook is the
// only coupling point — the bus never imports the fault package — and
// it is zero-overhead when nil:
// the uninstalled path costs one predictable branch per burst and
// allocates nothing (enforced by TestExactSteadyStateAllocFree and the
// hotpathalloc analyzer).
//
// Replay: when a hook reports a detected error, the memory controller
// retransmits the sector through ReplayBurst. Replays re-encode from the
// channel's *current* trailing wire state (the physically correct
// behavior — the wires are wherever the corrupted transmission left
// them), occupy wire time, and burn wire+logic energy, but deliver no
// new payload bits; their cost is accounted separately in
// Stats.ReplayEnergy / Stats.ReplayBursts and attributed to the
// profiler's PhaseReplay so the savings waterfall can price reliability.

import (
	"fmt"

	"smores/internal/mta"
	"smores/internal/obs"
)

// BurstVerdict is a hook's judgement of one transferred burst.
type BurstVerdict struct {
	// Injected is the number of symbol errors the hook injected into this
	// burst's transmitted stream (0 = the burst arrived clean).
	Injected int
	// Detected reports whether any detection layer — codebook, transition
	// legality, or EDC — flagged the burst, i.e. whether the receiver
	// would request a replay.
	Detected bool
}

// BurstHook observes every burst a channel transfers in exact-data mode.
// data is the 32-byte payload, codeLength the encoding (0 = dense MTA),
// pre the per-group trailing wire levels the encoder saw before the
// burst, tx each group's columns as the channel put them on the wires
// (payload bursts and replays alike), and replay whether this
// transmission is an EDC-triggered retransmission. Implementations are
// driven from the simulation's single-threaded hot path and need not be
// concurrency-safe, but must not modify data or tx, nor retain data or
// tx past the call: the channel reuses tx's buffers for its next burst.
type BurstHook interface {
	OnBurst(data []byte, codeLength int, pre [Groups]mta.GroupState, tx [Groups][]mta.Column, replay bool) BurstVerdict
}

// LastBurstVerdict returns the hook's verdict for the most recent burst
// (including replays). Zero when no hook is installed or the channel
// runs in expected mode.
func (ch *Channel) LastBurstVerdict() BurstVerdict { return ch.verdict }

// faultActive reports whether burst dispatch to the fault hook is live:
// hooks only see exact-data symbol streams.
//
//smores:hotpath
func (ch *Channel) faultActive() bool { return ch.fault != nil && ch.exact }

// dispatchFault forwards one completed burst, with the columns it put
// on the wires, to the installed hook and latches its verdict. The
// nil-hook path never reaches here (callers gate on faultActive), so the
// hot-path cost of a disabled hook is the gate's two predictable
// branches.
//
//smores:hotpath
func (ch *Channel) dispatchFault(data []byte, codeLength int, pre [Groups]mta.GroupState, replay bool) {
	ch.verdict = ch.fault.OnBurst(data, codeLength, pre, ch.txCols, replay)
}

// ReplayBurst retransmits one 32-byte sector after the receiver flagged
// the previous transmission. Exact-data mode only. The replay re-encodes
// from the current trailing wire state, so the transmitted symbols (and
// their energy) generally differ from the original burst. Accounting:
//
//   - Stats.ReplayEnergy gets the wire + logic energy (TotalEnergy
//     includes it; WireEnergy/LogicEnergy and DataBits do not move —
//     replays deliver no new payload).
//   - Stats.ReplayBursts and BusyUIs advance; the profiler sees every
//     symbol under PhaseReplay with real wire/level/transition identity.
//   - The installed hook observes the retransmission (replay=true), with
//     its columns, so a replay can itself be corrupted and re-detected.
func (ch *Channel) ReplayBurst(data []byte, codeLength int) error {
	if !ch.exact {
		return fmt.Errorf("bus: ReplayBurst requires exact-data mode")
	}
	if len(data) != BurstBytes {
		return fmt.Errorf("bus: replay burst needs %d bytes, got %d", BurstBytes, len(data))
	}
	if ch.recording {
		ch.record(Event{Kind: EventReplay, CodeLength: codeLength, Data: append([]byte(nil), data...)})
	}
	ch.takeTally()
	pre := ch.states
	var err error
	if codeLength == 0 {
		err = ch.replayMTA(data)
	} else {
		err = ch.replaySparse(data, codeLength)
	}
	if err != nil {
		return err
	}
	// Replays keep the payload-phase partition of WireEnergy intact: their
	// wire energy goes to ReplayEnergy, every wire's symbols to PhaseReplay.
	ch.account(&pre, ch.burstWalk(codeLength, obs.PhaseReplay, obs.PhaseReplay), &ch.stats.ReplayEnergy)
	ch.stats.ReplayBursts++
	if ch.faultActive() {
		ch.dispatchFault(data, codeLength, pre, true)
	}
	return nil
}

// replayMTA re-encodes a dense burst, accounting its logic energy into
// ReplayEnergy.
func (ch *Channel) replayMTA(data []byte) error {
	ch.stats.BusyUIs += BurstUIs
	ch.stats.ReplayEnergy += BurstBytes * 8 * ch.mtaLogic
	ch.tally.AddAggregate(obs.PhaseReplay, obs.ProfileCodecMTA, BurstBytes*8*ch.mtaLogic, 0)
	ch.lastMTA = true
	ch.encodeMTA(data)
	return nil
}

// replaySparse re-encodes a sparse burst, accounting its logic energy
// into ReplayEnergy.
func (ch *Channel) replaySparse(data []byte, codeLength int) error {
	sc := ch.family.ByLength(codeLength)
	if sc == nil {
		return fmt.Errorf("bus: no sparse codec of length %d in family", codeLength)
	}
	ch.stats.BusyUIs += int64(sc.BurstUIs(GroupBurstBytes))
	logic := BurstBytes * 8 * ch.sparseLogic
	ch.stats.ReplayEnergy += logic
	ch.tally.AddAggregate(obs.PhaseReplay, obs.ProfileCodecIndex(codeLength), logic, 0)
	ch.lastMTA = false
	ch.mtaChain = 0
	return ch.encodeSparse(sc, data)
}
