package gddr6x

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDefaultTimingValid(t *testing.T) {
	if err := DefaultTiming().Validate(); err != nil {
		t.Fatalf("default timing invalid: %v", err)
	}
}

func TestTimingValidation(t *testing.T) {
	mutations := []func(*Timing){
		func(x *Timing) { x.RL = 0 },
		func(x *Timing) { x.WL = -1 },
		func(x *Timing) { x.TCCD = 0 },
		func(x *Timing) { x.TRCD = 0 },
		func(x *Timing) { x.Banks = 0 },
		func(x *Timing) { x.Banks = 15 }, // not a multiple of 4 groups
		func(x *Timing) { x.RowSectors = 0 },
		func(x *Timing) { x.ChunkSectors = 9 }, // 64 % 9 != 0
		func(x *Timing) { x.TRTW = 2 },         // cannot cover read data
		func(x *Timing) { x.TRFC = 9999999 },   // ≥ TREFI
	}
	for i, mut := range mutations {
		cfg := DefaultTiming()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate timing", i)
		}
		if _, err := NewDevice(cfg); err == nil {
			t.Errorf("mutation %d should fail device construction", i)
		}
	}
}

func TestMapSectorBijective(t *testing.T) {
	cfg := DefaultTiming()
	seen := make(map[Address]uint64)
	for s := uint64(0); s < 1<<14; s++ {
		a := cfg.MapSector(s)
		if int(a.Bank) >= cfg.Banks {
			t.Fatalf("sector %d: bank %d out of range", s, a.Bank)
		}
		if int(a.Col) >= cfg.RowSectors {
			t.Fatalf("sector %d: col %d out of range", s, a.Col)
		}
		if prev, dup := seen[a]; dup {
			t.Fatalf("sectors %d and %d map to the same address %v", prev, s, a)
		}
		seen[a] = s
	}
}

func TestMapSectorInterleaving(t *testing.T) {
	cfg := DefaultTiming()
	chunk := uint64(cfg.ChunkSectors)
	// Sectors within one chunk share a bank/row and advance the column.
	a0 := cfg.MapSector(0)
	aLast := cfg.MapSector(chunk - 1)
	if a0.Bank != aLast.Bank || a0.Row != aLast.Row || aLast.Col != a0.Col+uint32(chunk-1) {
		t.Errorf("chunk not contiguous: %v vs %v", a0, aLast)
	}
	// The next chunk lands on the next bank.
	aNext := cfg.MapSector(chunk)
	if int(aNext.Bank) != (int(a0.Bank)+1)%cfg.Banks {
		t.Errorf("chunk interleave broken: %v", aNext)
	}
	// After one full round of banks we return to bank 0, same row,
	// next chunk position.
	r := cfg.MapSector(uint64(cfg.ChunkSectors * cfg.Banks))
	if r.Bank != a0.Bank || r.Row != a0.Row || r.Col != a0.Col+uint32(cfg.ChunkSectors) {
		t.Errorf("row revisit broken: %v", r)
	}
	// One row per bank fills before the row advances.
	perRow := uint64(cfg.RowSectors * cfg.Banks)
	n := cfg.MapSector(perRow)
	if n.Row != a0.Row+1 || n.Bank != a0.Bank || n.Col != a0.Col {
		t.Errorf("row advance broken: %v", n)
	}
}

func TestMapSectorQuick(t *testing.T) {
	cfg := DefaultTiming()
	f := func(s uint64) bool {
		s %= 1 << 40
		a := cfg.MapSector(s)
		return int(a.Bank) < cfg.Banks && int(a.Col) < cfg.RowSectors
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if cfg.BankGroup(5) != 1 {
		t.Error("bank group mapping wrong")
	}
	if (Address{Bank: 1, Row: 2, Col: 3}).String() != "b1/r2/c3" {
		t.Error("address string wrong")
	}
}

func mustDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestActivateReadPrechargeCycle(t *testing.T) {
	d := mustDevice(t)
	cfg := d.Timing()
	addr := Address{Bank: 0, Row: 5, Col: 0}

	if d.CanRead(addr, 0) {
		t.Fatal("read legal on closed bank")
	}
	if !d.CanActivate(0, 0) {
		t.Fatal("activate illegal on fresh device")
	}
	if err := d.Activate(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if !d.RowHit(addr) {
		t.Error("row hit not detected")
	}
	if d.CanRead(addr, cfg.TRCD-1) {
		t.Error("read legal before tRCD")
	}
	if !d.CanRead(addr, cfg.TRCD) {
		t.Error("read illegal at tRCD")
	}
	if err := d.Read(addr, cfg.TRCD); err != nil {
		t.Fatal(err)
	}
	// Wrong row is a conflict, not a hit.
	other := Address{Bank: 0, Row: 9}
	if d.CanRead(other, cfg.TRCD+cfg.TCCD) {
		t.Error("read legal on wrong row")
	}
	if !d.NeedsPrecharge(other) {
		t.Error("conflict not detected")
	}
	// Precharge honors tRAS.
	if d.CanPrecharge(0, cfg.TRCD+1) {
		t.Error("precharge legal before tRAS")
	}
	if !d.CanPrecharge(0, cfg.TRAS) {
		t.Error("precharge illegal after tRAS")
	}
	if err := d.Precharge(0, cfg.TRAS); err != nil {
		t.Fatal(err)
	}
	// Re-activate honors tRP.
	if d.CanActivate(0, cfg.TRAS+cfg.TRP-1) {
		t.Error("activate legal before tRP")
	}
	if !d.CanActivate(0, cfg.TRAS+cfg.TRP) {
		t.Error("activate illegal after tRP")
	}
}

func TestIllegalCommandsError(t *testing.T) {
	d := mustDevice(t)
	if err := d.Read(Address{Bank: 0}, 0); err == nil {
		t.Error("read on closed bank must error")
	}
	if err := d.Write(Address{Bank: 0}, 0); err == nil {
		t.Error("write on closed bank must error")
	}
	if err := d.Precharge(0, 0); err == nil {
		t.Error("precharge of closed bank must error")
	}
	if err := d.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, 2, 100); err == nil {
		t.Error("activate of open bank must error")
	}
	if err := d.Refresh(0); err == nil {
		t.Error("refresh with open bank must error")
	}
}

func TestTRRDBetweenActivates(t *testing.T) {
	d := mustDevice(t)
	cfg := d.Timing()
	if err := d.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if d.CanActivate(1, cfg.TRRD-1) {
		t.Error("ACT-to-ACT legal before tRRD")
	}
	if !d.CanActivate(1, cfg.TRRD) {
		t.Error("ACT-to-ACT illegal at tRRD")
	}
}

func TestColumnSpacingAndTurnaround(t *testing.T) {
	d := mustDevice(t)
	cfg := d.Timing()
	a0 := Address{Bank: 0, Row: 1}
	a1 := Address{Bank: 1, Row: 1}
	if err := d.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(1, 1, cfg.TRRD); err != nil {
		t.Fatal(err)
	}
	start := cfg.TRRD + cfg.TRCD
	if err := d.Read(a0, start); err != nil {
		t.Fatal(err)
	}
	if d.CanRead(a1, start+cfg.TCCD-1) {
		t.Error("read legal inside tCCD")
	}
	if !d.CanRead(a1, start+cfg.TCCD) {
		t.Error("read illegal at tCCD")
	}
	// Read→write turnaround.
	if d.CanWrite(a1, start+cfg.TCCD) {
		t.Error("write legal inside tRTW")
	}
	if !d.CanWrite(a1, start+cfg.TRTW) {
		t.Error("write illegal at tRTW")
	}
	if err := d.Write(a1, start+cfg.TRTW); err != nil {
		t.Fatal(err)
	}
	// Write→read turnaround.
	wr := start + cfg.TRTW
	if d.CanRead(a0, wr+cfg.TCCD) && cfg.TWTR > cfg.TCCD {
		t.Error("read legal inside tWTR")
	}
	if !d.CanRead(a0, wr+cfg.TWTR) {
		t.Error("read illegal at tWTR")
	}
	// Write recovery delays precharge.
	if d.CanPrecharge(1, wr+cfg.WL+cfg.TCCD+cfg.TWR-1) {
		t.Error("precharge legal inside tWR")
	}
}

func TestRefreshCycle(t *testing.T) {
	d := mustDevice(t)
	cfg := d.Timing()
	if d.RefreshDue(cfg.TREFI - 1) {
		t.Error("refresh due early")
	}
	if !d.RefreshDue(cfg.TREFI) {
		t.Error("refresh not due at tREFI")
	}
	if !d.CanRefresh(cfg.TREFI) {
		t.Fatal("refresh illegal on idle device")
	}
	if err := d.Refresh(cfg.TREFI); err != nil {
		t.Fatal(err)
	}
	if !d.Busy(cfg.TREFI + cfg.TRFC - 1) {
		t.Error("device not busy during refresh")
	}
	if d.Busy(cfg.TREFI + cfg.TRFC) {
		t.Error("device busy after refresh")
	}
	if d.CanActivate(0, cfg.TREFI+1) {
		t.Error("activate legal during refresh")
	}
	if !d.CanActivate(0, cfg.TREFI+cfg.TRFC) {
		t.Error("activate illegal after refresh")
	}
	if d.RefreshDue(cfg.TREFI + cfg.TRFC) {
		t.Error("refresh still due after refreshing")
	}
}

func TestCounters(t *testing.T) {
	d := mustDevice(t)
	cfg := d.Timing()
	if err := d.Activate(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(Address{Bank: 0, Row: 1}, cfg.TRCD); err != nil {
		t.Fatal(err)
	}
	if err := d.Precharge(0, cfg.TRAS); err != nil {
		t.Fatal(err)
	}
	acts, reads, writes, pres, refs := d.Counters()
	if acts != 1 || reads != 1 || writes != 0 || pres != 1 || refs != 0 {
		t.Errorf("counters = %d,%d,%d,%d,%d", acts, reads, writes, pres, refs)
	}
	if row, open := d.OpenRow(0); open || row != 1 {
		t.Error("bank should be closed after precharge")
	}
}

// TestColumnReadinessQueriesAreExact drives random legal command
// sequences (refreshes included) and checks the column readiness queries
// against the predicates they summarize: CanRead/CanWrite first hold at
// ColumnReadyAt, ColumnGateAt never exceeds any bank's ready clock, and
// each mask query equals its per-bank query reduced over a random bank set.
func TestColumnReadinessQueriesAreExact(t *testing.T) {
	d := mustDevice(t)
	cfg := d.Timing()
	r := rand.New(rand.NewSource(5))
	now := int64(0)
	for step := 0; step < 20000; step++ {
		now += int64(r.Intn(4))
		for b := 0; b < cfg.Banks; b++ {
			row, open := d.OpenRow(b)
			for _, write := range []bool{false, true} {
				a := Address{Bank: uint8(b), Row: row}
				ready := d.ColumnReadyAt(a, write)
				if !open {
					if ready != -1 {
						t.Fatalf("step %d: closed bank %d column-ready at %d", step, b, ready)
					}
					continue
				}
				can := d.CanRead
				if write {
					can = d.CanWrite
				}
				if gate := d.ColumnGateAt(write); gate > ready {
					t.Fatalf("step %d: gate %d above bank %d ready clock %d (write=%v)", step, gate, b, ready, write)
				}
				if !can(a, ready) || can(a, ready-1) {
					t.Fatalf("step %d: bank %d write=%v ready at %d disagrees with the predicate", step, b, write, ready)
				}
			}
		}
		m := r.Uint64() & (1<<uint(cfg.Banks) - 1)
		for _, at := range []int64{now, now + int64(r.Intn(48))} {
			if err := checkMaskQueries(d, m, at); err != nil {
				t.Fatalf("step %d, mask %#x, clock %d: %v", step, m, at, err)
			}
		}
		b := r.Intn(cfg.Banks)
		row, open := d.OpenRow(b)
		a := Address{Bank: uint8(b), Row: row}
		var err error
		switch {
		case d.RefreshDue(now):
			if d.CanRefresh(now) {
				err = d.Refresh(now)
			} else if d.CanPrecharge(b, now) {
				err = d.Precharge(b, now)
			}
		case !open && d.CanActivate(b, now):
			err = d.Activate(b, uint32(r.Intn(4)), now)
		case open && r.Intn(8) == 0 && d.CanPrecharge(b, now):
			err = d.Precharge(b, now)
		case open && r.Intn(3) == 0 && d.CanWrite(a, now):
			err = d.Write(a, now)
		case open && d.CanRead(a, now):
			err = d.Read(a, now)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, _, refs := d.Counters(); refs == 0 {
		t.Fatal("no refresh exercised")
	}
}

// checkMaskQueries compares every mask query over bank set m, asked at
// clock now, with the per-bank queries it reduces.
func checkMaskQueries(d *Device, m uint64, now int64) error {
	minReady := func(t, r int64) int64 {
		if r >= 0 && (t < 0 || r < t) {
			return r
		}
		return t
	}
	var open, prepNow uint64
	prepAt := int64(-1)
	for b := 0; b < d.Timing().Banks; b++ {
		bit := uint64(1) << uint(b)
		_, isOpen := d.OpenRow(b)
		if isOpen {
			open |= bit
		}
		if m&bit == 0 {
			continue
		}
		if isOpen && d.CanPrecharge(b, now) || !isOpen && d.CanActivate(b, now) {
			prepNow |= bit
		}
		prepAt = minReady(prepAt, d.PrechargeReadyAt(b))
		prepAt = minReady(prepAt, d.ActivateReadyAt(b))
	}
	if got := d.OpenMask(); got != open {
		return fmt.Errorf("OpenMask %#x, per-bank %#x", got, open)
	}
	if got := d.CanPrepMask(m, now); got != prepNow {
		return fmt.Errorf("CanPrepMask %#x, per-bank %#x", got, prepNow)
	}
	if got := d.PrepReadyAtMask(m); got != prepAt {
		return fmt.Errorf("PrepReadyAtMask %d, per-bank %d", got, prepAt)
	}
	for _, write := range []bool{false, true} {
		can := d.CanRead
		if write {
			can = d.CanWrite
		}
		var colNow uint64
		colAt := int64(-1)
		for b := 0; b < d.Timing().Banks; b++ {
			row, isOpen := d.OpenRow(b)
			if m&(1<<uint(b)) == 0 || !isOpen {
				continue
			}
			a := Address{Bank: uint8(b), Row: row}
			if can(a, now) {
				colNow |= 1 << uint(b)
			}
			colAt = minReady(colAt, d.ColumnReadyAt(a, write))
		}
		if got := d.CanColumnMask(m, write, now); got != colNow {
			return fmt.Errorf("CanColumnMask(write=%v) %#x, per-bank %#x", write, got, colNow)
		}
		if got := d.ColumnReadyAtMask(m, write); got != colAt {
			return fmt.Errorf("ColumnReadyAtMask(write=%v) %d, per-bank %d", write, got, colAt)
		}
	}
	return nil
}
