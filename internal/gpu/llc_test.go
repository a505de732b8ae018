package gpu

import (
	"slices"
	"testing"

	"smores/internal/rng"
)

func mustLLC(t *testing.T, cfg LLCConfig) *LLC {
	t.Helper()
	l, err := NewLLC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func smallLLC() LLCConfig {
	return LLCConfig{SizeBytes: 8192, LineBytes: 128, SectorBytes: 32, Ways: 4}
}

func TestLLCConfigValidation(t *testing.T) {
	if err := DefaultLLCConfig().Validate(); err != nil {
		t.Fatalf("default LLC invalid: %v", err)
	}
	bad := []LLCConfig{
		{SizeBytes: 0, LineBytes: 128, SectorBytes: 32, Ways: 16},
		{SizeBytes: 6 << 20, LineBytes: 100, SectorBytes: 32, Ways: 16},
		{SizeBytes: 1000, LineBytes: 128, SectorBytes: 32, Ways: 16},
		{SizeBytes: 6 << 20, LineBytes: 128, SectorBytes: 32, Ways: 0},
		// 16 sectors per line: the line's 8-bit sector masks cannot
		// track sectors 8-15.
		{SizeBytes: 16384, LineBytes: 512, SectorBytes: 32, Ways: 4},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
		if _, err := NewLLC(c); err == nil {
			t.Errorf("config %d should fail construction", i)
		}
	}
	if DefaultLLCConfig().SectorsPerLine() != 4 {
		t.Error("sectors per line wrong")
	}
	if DefaultLLCConfig().Sets() != 3072 {
		t.Errorf("sets = %d, want 3072", DefaultLLCConfig().Sets())
	}
}

func TestReadMissThenHit(t *testing.T) {
	l := mustLLC(t, smallLLC())
	miss, wbs := l.Access(100, false)
	if !miss || len(wbs) != 0 {
		t.Fatal("first read should miss cleanly")
	}
	miss, _ = l.Access(100, false)
	if miss {
		t.Fatal("second read should hit")
	}
	st := l.Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Errorf("stats: %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Errorf("hit rate = %g", st.HitRate())
	}
}

func TestSectoredFill(t *testing.T) {
	l := mustLLC(t, smallLLC())
	// Sector 0 and sector 1 share a line but fill independently.
	if miss, _ := l.Access(0, false); !miss {
		t.Fatal("sector 0 should miss")
	}
	if miss, _ := l.Access(1, false); !miss {
		t.Fatal("sector 1 should miss despite line presence")
	}
	if miss, _ := l.Access(0, false); miss {
		t.Fatal("sector 0 should now hit")
	}
}

func TestWriteValidateNoFetch(t *testing.T) {
	l := mustLLC(t, smallLLC())
	if dramRead, _ := l.Access(7, true); dramRead {
		t.Fatal("write miss must not fetch (write-validate)")
	}
	// The written sector hits on read.
	if miss, _ := l.Access(7, false); miss {
		t.Fatal("written sector should read-hit")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg := smallLLC() // 16 sets, 4 ways
	l := mustLLC(t, cfg)
	sets := uint64(cfg.Sets())
	perLine := uint64(cfg.SectorsPerLine())
	// Dirty one sector in set 0.
	l.Access(0, true)
	// Evict it by filling the set with more lines mapping to set 0.
	var wbs []uint64
	for i := uint64(1); i <= uint64(cfg.Ways); i++ {
		_, w := l.Access(i*sets*perLine, false)
		wbs = append(wbs, w...)
	}
	if len(wbs) != 1 || wbs[0] != 0 {
		t.Fatalf("expected writeback of sector 0, got %v", wbs)
	}
	if l.Stats().Writebacks != 1 || l.Stats().Evictions == 0 {
		t.Errorf("stats: %+v", l.Stats())
	}
}

func TestLRUReplacement(t *testing.T) {
	cfg := smallLLC()
	l := mustLLC(t, cfg)
	sets := uint64(cfg.Sets())
	perLine := uint64(cfg.SectorsPerLine())
	// Fill all 4 ways of set 0, touching line 0 last.
	for i := uint64(0); i < uint64(cfg.Ways); i++ {
		l.Access(i*sets*perLine, false)
	}
	l.Access(0, false) // refresh line 0
	// A new line should evict line 1 (the LRU), not line 0.
	l.Access(uint64(cfg.Ways)*sets*perLine, false)
	if miss, _ := l.Access(0, false); miss {
		t.Error("recently used line was evicted")
	}
	if miss, _ := l.Access(1*sets*perLine, false); !miss {
		t.Error("LRU line should have been evicted")
	}
}

func TestHitRateTracksReuse(t *testing.T) {
	l := mustLLC(t, DefaultLLCConfig())
	r := rng.New(9)
	// Small working set (fits in cache): after warmup, hit rate ≈ 1.
	const ws = 4096
	for i := 0; i < 200000; i++ {
		l.Access(uint64(r.Intn(ws)), r.Bool(0.3))
	}
	if hr := l.Stats().HitRate(); hr < 0.95 {
		t.Errorf("resident working set hit rate = %.2f", hr)
	}
	// Huge working set: hit rate collapses.
	l2 := mustLLC(t, DefaultLLCConfig())
	for i := 0; i < 200000; i++ {
		l2.Access(uint64(r.Intn(64<<20)), false)
	}
	if hr := l2.Stats().HitRate(); hr > 0.2 {
		t.Errorf("streaming working set hit rate = %.2f", hr)
	}
}

func TestEmptyStats(t *testing.T) {
	if (LLCStats{}).HitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

// A reset cache must be indistinguishable from a fresh one: after
// random traffic that leaves dirty lines and a running LRU clock, Reset
// and NewLLC must agree on every later access's fetch decision and
// writeback list, and on the statistics.
func TestLLCResetMatchesFresh(t *testing.T) {
	cfg := smallLLC()
	reused := mustLLC(t, cfg)
	// Traffic over 16 times the cache's 64 lines: evictions are frequent.
	span := 16 * cfg.Sets() * cfg.Ways * cfg.SectorsPerLine()
	r := rng.New(11)
	for i := 0; i < 5000; i++ {
		reused.Access(uint64(r.Intn(span)), r.Bool(0.4))
	}
	if st := reused.Stats(); st.Writebacks == 0 {
		t.Fatalf("warm-up wrote nothing back — the test is vacuous: %+v", st)
	}
	if err := reused.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	fresh := mustLLC(t, cfg)
	if reused.Stats() != fresh.Stats() {
		t.Fatalf("reset stats %+v, want a fresh cache's %+v", reused.Stats(), fresh.Stats())
	}
	for i := 0; i < 5000; i++ {
		sector, write := uint64(r.Intn(span)), r.Bool(0.4)
		gotRead, gotWB := reused.Access(sector, write)
		wantRead, wantWB := fresh.Access(sector, write)
		if gotRead != wantRead || !slices.Equal(gotWB, wantWB) {
			t.Fatalf("access %d (sector %d write %v): reset cache gave read=%v writebacks=%v, fresh read=%v writebacks=%v",
				i, sector, write, gotRead, gotWB, wantRead, wantWB)
		}
	}
	if reused.Stats() != fresh.Stats() {
		t.Fatalf("stats diverged: reset %+v, fresh %+v", reused.Stats(), fresh.Stats())
	}
	if fresh.Stats().Writebacks == 0 {
		t.Fatal("the compared stream wrote nothing back — the test is vacuous")
	}
}
