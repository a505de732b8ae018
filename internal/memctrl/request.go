// Package memctrl implements a GPU-style GDDR6X memory controller for one
// channel: FR-FCFS scheduling with activate priority, write-buffer
// draining with bus turnaround, refresh management, and — the part the
// paper adds — the opportunistic SMOREs encoding decision driven by
// command-gap detection, mirrored on both the DRAM and GPU side.
package memctrl

import (
	"fmt"

	"smores/internal/gddr6x"
)

// Kind distinguishes reads from writes.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Request is one 32-byte sector transfer requested of the controller.
// The controller holds requests by value (Enqueue copies one in), and it
// has no pointer fields, so queues of them cost the garbage collector
// nothing. Its fields are ordered and sized to fill one 64-byte cache
// line: the controller copies a request from its queue slot to the
// pending transfer and to the completion list.
type Request struct {
	// ID is a caller-chosen identifier, echoed on completion.
	ID uint64
	// Sector is the linear 32-byte sector index within the channel.
	Sector uint64

	// Fields the controller fills in on its copy (visible to the
	// OnReadDone callback):

	// Arrive is the clock at which the request entered the controller.
	Arrive int64
	// IssuedAt is the clock of the column command.
	IssuedAt int64
	// DataStart is the clock at which the data slot begins.
	DataStart int64
	// Done is the clock at which read data has fully arrived and decoded
	// (reads only).
	Done int64
	// Addr is the decomposed DRAM coordinate.
	Addr gddr6x.Address
	// Replayed counts EDC-triggered retransmissions this request's burst
	// needed (0 when the link-reliability hook is off or the burst was
	// clean); ReplayConfig.validate caps the retry budget to fit.
	Replayed uint16
	// CodeLength is the encoding used (0 = MTA; sparse codes are at most
	// core.MaxSparseSymbols long).
	CodeLength uint8

	// Kind selects read or write (set by the caller).
	Kind Kind
}
