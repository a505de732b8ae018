package gddr6x

import (
	"fmt"
	"math"
	"math/bits"
)

// Device tracks per-bank state and enforces command legality. The memory
// controller asks Can* before issuing and then commits with the matching
// command method. All methods take the current command clock; commands
// may only move forward in time.
type Device struct {
	t     Timing
	banks []bank
	// open holds bit b while bank b has an open row; group0 holds the
	// banks of bank group 0, so group g's banks are group0 << g
	// (BankGroup is bank % BankGroups).
	open   uint64
	group0 uint64

	lastACT     int64 // for tRRD
	lastCol     int64 // for tCCD and turnaround
	lastColWr   bool
	lastColBG   uint8 // bank group of the last column command (tCCD_L)
	anyCol      bool
	refDue      int64
	refDuePB    int64
	refBankIdx  int
	refBusyTill int64

	// Counters for reporting.
	acts, reads, writes, pres, refs int64
}

type bank struct {
	group    uint8 // BankGroup of the bank, so queries never divide
	row      uint32
	actReady int64 // earliest ACTIVATE
	colReady int64 // earliest READ/WRITE after ACTIVATE (tRCD)
	preReady int64 // earliest PRECHARGE
}

// NewDevice builds a device with all banks precharged.
func NewDevice(t Timing) (*Device, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		t:        t,
		banks:    make([]bank, t.Banks),
		lastACT:  -1 << 40,
		lastCol:  -1 << 40,
		refDue:   t.TREFI,
		refDuePB: t.TREFI / int64(t.Banks),
	}
	for b := range d.banks {
		d.banks[b].group = uint8(t.BankGroup(b))
		if d.banks[b].group == 0 {
			d.group0 |= 1 << uint(b)
		}
	}
	return d, nil
}

// Timing returns the device's timing parameters.
func (d *Device) Timing() Timing { return d.t }

// Busy reports whether the device is inside a refresh cycle at now.
func (d *Device) Busy(now int64) bool { return now < d.refBusyTill }

// isOpen reports whether bank b holds an open row.
func (d *Device) isOpen(b int) bool { return d.open>>uint(b)&1 != 0 }

// OpenRow returns the open row of a bank, if any.
func (d *Device) OpenRow(b int) (uint32, bool) {
	return d.banks[b].row, d.isOpen(b)
}

// OpenMask returns the banks holding an open row, bank b as bit b.
func (d *Device) OpenMask() uint64 { return d.open }

// RowHit reports whether addr's row is open in its bank.
func (d *Device) RowHit(addr Address) bool {
	return d.isOpen(int(addr.Bank)) && d.banks[addr.Bank].row == addr.Row
}

// NeedsPrecharge reports whether addr's bank holds a different open row.
func (d *Device) NeedsPrecharge(addr Address) bool {
	return d.isOpen(int(addr.Bank)) && d.banks[addr.Bank].row != addr.Row
}

// CanActivate reports whether ACT(b,row) may issue at now.
func (d *Device) CanActivate(b int, now int64) bool {
	return !d.Busy(now) && !d.isOpen(b) && now >= d.banks[b].actReady && now >= d.lastACT+d.t.TRRD
}

// Activate opens a row.
func (d *Device) Activate(b int, row uint32, now int64) error {
	if !d.CanActivate(b, now) {
		return fmt.Errorf("gddr6x: illegal ACT bank %d at %d", b, now)
	}
	bk := &d.banks[b]
	d.open |= 1 << uint(b)
	bk.row = row
	bk.colReady = now + d.t.TRCD
	bk.preReady = now + d.t.TRAS
	d.lastACT = now
	d.acts++
	return nil
}

// colSpacingOK enforces tCCD_S/tCCD_L and bus-turnaround spacing between
// column commands.
func (d *Device) colSpacingOK(now int64, write bool, bankGroup uint8) bool {
	if !d.anyCol {
		return true
	}
	ccd := d.t.TCCD
	if bankGroup == d.lastColBG && d.t.TCCDL > ccd {
		ccd = d.t.TCCDL
	}
	if now < d.lastCol+ccd {
		return false
	}
	if write && !d.lastColWr && now < d.lastCol+d.t.TRTW {
		return false
	}
	if !write && d.lastColWr && now < d.lastCol+d.t.TWTR {
		return false
	}
	return true
}

// CanRead reports whether READ(addr) may issue at now.
func (d *Device) CanRead(addr Address, now int64) bool {
	bk := &d.banks[addr.Bank]
	return !d.Busy(now) && d.RowHit(addr) &&
		now >= bk.colReady && d.colSpacingOK(now, false, bk.group)
}

// Read issues a column read.
func (d *Device) Read(addr Address, now int64) error {
	if !d.CanRead(addr, now) {
		return fmt.Errorf("gddr6x: illegal READ %v at %d", addr, now)
	}
	bk := &d.banks[addr.Bank]
	if p := now + d.t.TRTP; p > bk.preReady {
		bk.preReady = p
	}
	d.lastCol = now
	d.lastColWr = false
	d.lastColBG = bk.group
	d.anyCol = true
	d.reads++
	return nil
}

// CanWrite reports whether WRITE(addr) may issue at now.
func (d *Device) CanWrite(addr Address, now int64) bool {
	bk := &d.banks[addr.Bank]
	return !d.Busy(now) && d.RowHit(addr) &&
		now >= bk.colReady && d.colSpacingOK(now, true, bk.group)
}

// Write issues a column write.
func (d *Device) Write(addr Address, now int64) error {
	if !d.CanWrite(addr, now) {
		return fmt.Errorf("gddr6x: illegal WRITE %v at %d", addr, now)
	}
	bk := &d.banks[addr.Bank]
	if p := now + d.t.WL + d.t.TCCD + d.t.TWR; p > bk.preReady {
		bk.preReady = p
	}
	d.lastCol = now
	d.lastColWr = true
	d.lastColBG = bk.group
	d.anyCol = true
	d.writes++
	return nil
}

// CanPrecharge reports whether PRE(b) may issue at now.
func (d *Device) CanPrecharge(b int, now int64) bool {
	return !d.Busy(now) && d.isOpen(b) && now >= d.banks[b].preReady
}

// Precharge closes a bank.
func (d *Device) Precharge(b int, now int64) error {
	if !d.CanPrecharge(b, now) {
		return fmt.Errorf("gddr6x: illegal PRE bank %d at %d", b, now)
	}
	d.open &^= 1 << uint(b)
	d.banks[b].actReady = now + d.t.TRP
	d.pres++
	return nil
}

// RefreshDue reports whether an all-bank refresh is owed at now.
func (d *Device) RefreshDue(now int64) bool { return now >= d.refDue }

// PerBankRefreshDue reports whether the next round-robin per-bank refresh
// is owed at now (per-bank refreshes run Banks× as often, each covering
// 1/Banks of the device).
func (d *Device) PerBankRefreshDue(now int64) bool { return now >= d.refDuePB }

// NextRefreshBank returns the bank the round-robin per-bank refresh
// targets next.
func (d *Device) NextRefreshBank() int { return d.refBankIdx }

// CanRefreshBank reports whether REFpb may issue for bank b at now.
func (d *Device) CanRefreshBank(b int, now int64) bool {
	return !d.Busy(now) && !d.isOpen(b) && now >= d.banks[b].actReady
}

// RefreshBank performs a per-bank refresh of bank b, blocking only that
// bank for tRFCpb.
func (d *Device) RefreshBank(b int, now int64) error {
	if b != d.refBankIdx {
		return fmt.Errorf("gddr6x: REFpb bank %d out of order (next is %d)", b, d.refBankIdx)
	}
	if !d.CanRefreshBank(b, now) {
		return fmt.Errorf("gddr6x: illegal REFpb bank %d at %d", b, now)
	}
	d.banks[b].actReady = now + d.t.TRFCPB
	d.refBankIdx = (d.refBankIdx + 1) % d.t.Banks
	d.refDuePB += d.t.TREFI / int64(d.t.Banks)
	d.refs++
	return nil
}

// CanRefresh reports whether REFab may issue: all banks precharged and no
// refresh in flight.
func (d *Device) CanRefresh(now int64) bool {
	if d.Busy(now) || d.open != 0 {
		return false
	}
	for i := range d.banks {
		if now < d.banks[i].actReady {
			return false
		}
	}
	return true
}

// Refresh performs an all-bank refresh.
func (d *Device) Refresh(now int64) error {
	if !d.CanRefresh(now) {
		return fmt.Errorf("gddr6x: illegal REFab at %d", now)
	}
	end := now + d.t.TRFC
	for i := range d.banks {
		d.banks[i].actReady = end
	}
	d.refBusyTill = end
	d.refDue += d.t.TREFI
	d.refs++
	return nil
}

// Counters reports cumulative command counts (ACT, RD, WR, PRE, REF).
func (d *Device) Counters() (acts, reads, writes, pres, refs int64) {
	return d.acts, d.reads, d.writes, d.pres, d.refs
}

// Next-event queries for the controller's event-skipping tick loop.
//
// Between commands the device's state is static: every Can* predicate is
// a conjunction of "now >= <precomputed clock>" terms, so the first clock
// at which it can become true is the max of those terms. The controller
// uses these to advance directly to the next actionable clock; any command
// issued in between invalidates the answer, so callers must re-query after
// every issued command (the controller recomputes per skip).
//
// Each *ReadyAt method returns the exact first clock t such that the
// matching Can* predicate holds at t given no intervening state change,
// or -1 when the predicate cannot become true by time alone (e.g. an
// ACTIVATE to an already-open bank needs a PRECHARGE first).
//
// A command only pushes these clocks later, with three exceptions: an
// ACTIVATE makes its bank column-ready and precharge-ready, a PRECHARGE
// makes its bank activate-ready, and a column command releases the
// previous command's bank group from tCCD_L. The controller's issue
// horizons rely on this.

// BusyUntil returns the clock through which the device is inside an
// all-bank refresh cycle (commands resume at the returned clock).
func (d *Device) BusyUntil() int64 { return d.refBusyTill }

// LastColumnAt returns the clock of the most recent column command (a
// large negative sentinel before the first). The controller uses it as an
// O(1) streaming detector: while columns land every tCCD, computing a
// skip costs more than the one or two clocks it could save.
func (d *Device) LastColumnAt() int64 {
	if !d.anyCol {
		return -1 << 40
	}
	return d.lastCol
}

// RefreshDueAt returns the clock at which the next all-bank refresh
// becomes due.
func (d *Device) RefreshDueAt() int64 { return d.refDue }

// PerBankRefreshDueAt returns the clock at which the next round-robin
// per-bank refresh becomes due.
func (d *Device) PerBankRefreshDueAt() int64 { return d.refDuePB }

// ColumnReadyAt returns the first clock at which a column command to addr
// could issue, or -1 when the bank is closed or holds a different row
// (an ACT/PRE must happen first — itself an event).
func (d *Device) ColumnReadyAt(addr Address, write bool) int64 {
	if !d.RowHit(addr) {
		return -1
	}
	return d.columnReadyAt(int(addr.Bank), d.ColumnGateAt(write))
}

// columnReadyAt returns open bank b's column ready clock given the
// device-wide gate. tCCD_L ≥ tCCD_S (validated), so a same-group command
// only waits longer.
func (d *Device) columnReadyAt(b int, gate int64) int64 {
	t := gate
	bk := &d.banks[b]
	if bk.colReady > t {
		t = bk.colReady
	}
	if d.anyCol && bk.group == d.lastColBG {
		if s := d.lastCol + d.t.TCCDL; s > t {
			t = s
		}
	}
	return t
}

// ColumnGateAt returns the first clock at which the device-wide column
// constraints — the refresh shadow, tCCD_S and bus turnaround — admit a
// column command of the given direction. Per-bank terms (tRCD, tCCD_L,
// the open row) only push a command later, so no READ (write false) or
// WRITE (write true) can issue to any bank before the returned clock.
func (d *Device) ColumnGateAt(write bool) int64 {
	t := d.refBusyTill
	if !d.anyCol {
		return t
	}
	if s := d.lastCol + d.t.TCCD; s > t {
		t = s
	}
	if write && !d.lastColWr {
		if s := d.lastCol + d.t.TRTW; s > t {
			t = s
		}
	}
	if !write && d.lastColWr {
		if s := d.lastCol + d.t.TWTR; s > t {
			t = s
		}
	}
	return t
}

// ActivateReadyAt returns the first clock at which ACT(b) could issue, or
// -1 when the bank is open (it needs a precharge first).
func (d *Device) ActivateReadyAt(b int) int64 {
	if d.isOpen(b) {
		return -1
	}
	t := d.banks[b].actReady
	if s := d.lastACT + d.t.TRRD; s > t {
		t = s
	}
	if d.refBusyTill > t {
		t = d.refBusyTill
	}
	return t
}

// PrechargeReadyAt returns the first clock at which PRE(b) could issue,
// or -1 when the bank is already closed.
func (d *Device) PrechargeReadyAt(b int) int64 {
	if !d.isOpen(b) {
		return -1
	}
	t := d.banks[b].preReady
	if d.refBusyTill > t {
		t = d.refBusyTill
	}
	return t
}

// RefreshReadyAt returns the first clock at which REFab could issue, or
// -1 while any bank is open (precharges must land first; those are events
// of their own).
func (d *Device) RefreshReadyAt() int64 {
	if d.open != 0 {
		return -1
	}
	t := d.refBusyTill
	for i := range d.banks {
		if d.banks[i].actReady > t {
			t = d.banks[i].actReady
		}
	}
	return t
}

// RefreshBankReadyAt returns the first clock at which REFpb could issue
// for bank b, or -1 while the bank is open.
func (d *Device) RefreshBankReadyAt(b int) int64 {
	if d.isOpen(b) {
		return -1
	}
	t := d.banks[b].actReady
	if d.refBusyTill > t {
		t = d.refBusyTill
	}
	return t
}

// Mask queries answer a readiness question for a set of banks at once,
// bank b as bit b, so a scheduler that tracks its banks in machine words
// asks once per set instead of once per bank. Each equals the per-bank
// query reduced over the set (TestColumnReadinessQueriesAreExact).

// CanColumnMask returns the banks of m whose open row could take a column
// command of the given direction at now: bank b is set exactly when b is
// open and CanRead (write false) or CanWrite (write true) holds at now for
// its open row.
func (d *Device) CanColumnMask(m uint64, write bool, now int64) uint64 {
	m &= d.open
	if m == 0 || now < d.ColumnGateAt(write) {
		return 0
	}
	if d.anyCol && now < d.lastCol+d.t.TCCDL {
		m &^= d.group0 << d.lastColBG
	}
	ready := m
	for ; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		if now < d.banks[b].colReady {
			ready &^= 1 << uint(b)
		}
	}
	return ready
}

// ColumnReadyAtMask returns the first clock at which a column command of
// the given direction could issue to the open row of some bank of m — the
// minimum of ColumnReadyAt over m's open banks — or -1 when none is open.
func (d *Device) ColumnReadyAtMask(m uint64, write bool) int64 {
	m &= d.open
	if m == 0 {
		return -1
	}
	gate := d.ColumnGateAt(write)
	t := int64(math.MaxInt64)
	for ; m != 0; m &= m - 1 {
		if r := d.columnReadyAt(bits.TrailingZeros64(m), gate); r < t {
			t = r
		}
	}
	return t
}

// CanPrepMask returns the banks of m that could take, at now, the command
// that readies them for another row: bank b is set exactly when
// CanPrecharge(b, now) holds for an open bank, or CanActivate(b, now) for
// a closed one.
func (d *Device) CanPrepMask(m uint64, now int64) uint64 {
	if d.Busy(now) {
		return 0
	}
	var ready uint64
	for o := m & d.open; o != 0; o &= o - 1 {
		b := bits.TrailingZeros64(o)
		if now >= d.banks[b].preReady {
			ready |= 1 << uint(b)
		}
	}
	if now < d.lastACT+d.t.TRRD {
		return ready
	}
	for c := m &^ d.open; c != 0; c &= c - 1 {
		b := bits.TrailingZeros64(c)
		if now >= d.banks[b].actReady {
			ready |= 1 << uint(b)
		}
	}
	return ready
}

// PrepReadyAtMask returns the first clock at which some bank of m could
// take that command — the minimum of PrechargeReadyAt over m's open banks
// and ActivateReadyAt over its closed ones — or -1 for an empty mask.
func (d *Device) PrepReadyAtMask(m uint64) int64 {
	if m == 0 {
		return -1
	}
	t := int64(math.MaxInt64)
	for o := m & d.open; o != 0; o &= o - 1 {
		if r := d.banks[bits.TrailingZeros64(o)].preReady; r < t {
			t = r
		}
	}
	if c := m &^ d.open; c != 0 {
		act := int64(math.MaxInt64)
		for ; c != 0; c &= c - 1 {
			if r := d.banks[bits.TrailingZeros64(c)].actReady; r < act {
				act = r
			}
		}
		if s := d.lastACT + d.t.TRRD; s > act {
			act = s
		}
		if act < t {
			t = act
		}
	}
	if d.refBusyTill > t {
		t = d.refBusyTill
	}
	return t
}
