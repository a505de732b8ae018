// Package gddr6x models the DRAM device side of a GDDR6X channel: bank
// and bank-group state machines with the timing constraints that shape
// command scheduling, plus the address mapping from linear 32-byte
// sectors to (bank, row, column) coordinates.
//
// All times are in command clocks. GDDR6X per-command timings are not
// public; following the paper (§IV-C), values are estimated from the
// GDDR5/GDDR6 family: read latency ≈ 12 ns ≈ 30 clocks in the RTX 3090
// configuration.
package gddr6x

import "fmt"

// Timing collects the device timing parameters in command clocks.
type Timing struct {
	// RL is the read latency: READ command to first data symbol.
	RL int64
	// WL is the write latency: WRITE command to first data symbol.
	WL int64
	// TCCD is the minimum spacing between column commands to different
	// bank groups — equal to the dense burst length (2 clocks = 8 UIs).
	TCCD int64
	// TCCDL is the column-command spacing within one bank group
	// (tCCD_L > tCCD_S); back-to-back hits to the same group therefore
	// leave a one-clock data-bus bubble.
	TCCDL int64
	// TRCD is ACTIVATE-to-column-command delay.
	TRCD int64
	// TRP is PRECHARGE-to-ACTIVATE delay.
	TRP int64
	// TRAS is the minimum ACTIVATE-to-PRECHARGE time.
	TRAS int64
	// TRTP is READ-to-PRECHARGE delay.
	TRTP int64
	// TWR is the write recovery time (end of write data to PRECHARGE).
	TWR int64
	// TRRD is the minimum spacing between ACTIVATEs to different banks.
	TRRD int64
	// TRTW is the READ-command-to-WRITE-command turnaround. It must cover
	// the read data's bus occupancy: RL − WL + TCCD plus a bubble.
	TRTW int64
	// TWTR is the WRITE-to-READ turnaround (internal write-to-read delay).
	TWTR int64
	// TREFI is the average refresh interval; TRFC the all-bank refresh
	// cycle time; TRFCPB the per-bank refresh cycle time.
	TREFI  int64
	TRFC   int64
	TRFCPB int64
	// Banks and BankGroups describe the device organization.
	Banks      int
	BankGroups int
	// RowSectors is the row (page) size in 32-byte sectors (2 KB page).
	RowSectors int
	// ChunkSectors is the bank-interleave granularity in sectors.
	ChunkSectors int
}

// DefaultTiming returns the RTX 3090-class GDDR6X estimate used by the
// paper's evaluation.
func DefaultTiming() Timing {
	return Timing{
		RL:           30,
		WL:           8,
		TCCD:         2,
		TCCDL:        3,
		TRCD:         18,
		TRP:          18,
		TRAS:         40,
		TRTP:         8,
		TWR:          18,
		TRRD:         4,
		TRTW:         26, // ≥ RL−WL+TCCD+bubble so read data clears the bus
		TWTR:         8,
		TREFI:        4680,
		TRFC:         160,
		TRFCPB:       60,
		Banks:        16,
		BankGroups:   4,
		RowSectors:   64, // 2 KB row of 32-byte sectors
		ChunkSectors: 4,  // 128-byte (cache-line) bank interleave
	}
}

// Validate checks structural consistency (not JEDEC compliance).
func (t Timing) Validate() error {
	switch {
	case t.RL <= 0 || t.WL <= 0 || t.TCCD <= 0:
		return fmt.Errorf("gddr6x: RL/WL/TCCD must be positive")
	case t.TCCDL < t.TCCD:
		return fmt.Errorf("gddr6x: tCCD_L (%d) must be at least tCCD_S (%d)", t.TCCDL, t.TCCD)
	case t.TRCD <= 0 || t.TRP <= 0 || t.TRAS <= 0:
		return fmt.Errorf("gddr6x: bank timings must be positive")
	case t.Banks <= 0 || t.BankGroups <= 0 || t.Banks%t.BankGroups != 0:
		return fmt.Errorf("gddr6x: banks (%d) must be a positive multiple of bank groups (%d)", t.Banks, t.BankGroups)
	case t.Banks > 64:
		return fmt.Errorf("gddr6x: banks (%d) exceed 64 (controllers track banks in one machine word)", t.Banks)
	case t.RowSectors <= 0 || t.ChunkSectors <= 0 || t.RowSectors%t.ChunkSectors != 0:
		return fmt.Errorf("gddr6x: row sectors (%d) must be a positive multiple of chunk sectors (%d)", t.RowSectors, t.ChunkSectors)
	case t.TRTW < t.RL-t.WL+t.TCCD:
		return fmt.Errorf("gddr6x: TRTW=%d cannot cover read data occupancy (need ≥ %d)", t.TRTW, t.RL-t.WL+t.TCCD)
	case t.TREFI <= 0 || t.TRFC <= 0 || t.TRFC >= t.TREFI:
		return fmt.Errorf("gddr6x: refresh timings inconsistent")
	case t.TRFCPB <= 0 || t.TRFCPB > t.TRFC:
		return fmt.Errorf("gddr6x: per-bank refresh time %d must be in (0, tRFC]", t.TRFCPB)
	}
	return nil
}

// Address locates a 32-byte sector inside one channel's DRAM.
type Address struct {
	Bank uint8 // Validate caps Banks at 64
	Row  uint32
	Col  uint32 // sector offset within the row
}

// String renders the address compactly.
func (a Address) String() string {
	return fmt.Sprintf("b%d/r%d/c%d", a.Bank, a.Row, a.Col)
}

// MapSector decomposes a linear sector index: chunks of ChunkSectors
// interleave round-robin across banks, and RowSectors/ChunkSectors chunks
// fill one row per bank before advancing to the next row. Sequential
// streams therefore both exploit bank-level parallelism and revisit open
// rows. Pointer receiver: Timing is 152 bytes and the controller maps
// every request it accepts.
func (t *Timing) MapSector(sector uint64) Address {
	chunk := sector / uint64(t.ChunkSectors)
	within := uint32(sector % uint64(t.ChunkSectors))
	bank := int(chunk % uint64(t.Banks))
	chunkRound := chunk / uint64(t.Banks)
	chunksPerRow := uint64(t.RowSectors / t.ChunkSectors)
	col := uint32(chunkRound%chunksPerRow)*uint32(t.ChunkSectors) + within
	row := uint32(chunkRound / chunksPerRow)
	return Address{Bank: uint8(bank), Row: row, Col: col}
}

// BankGroup returns the bank-group index of a bank. Pointer receiver:
// the device asks on every column command and readiness query.
func (t *Timing) BankGroup(bank int) int { return bank % t.BankGroups }
