// Package gpu models the GPU side of the memory system: a sectored
// last-level cache (the RTX 3090's 6 MB L2 with four 32-byte sectors per
// 128-byte line) and a driver that turns workload access streams into
// DRAM traffic under an MSHR-style outstanding-miss limit.
package gpu

import "fmt"

// LLCConfig describes the last-level cache.
type LLCConfig struct {
	// SizeBytes is the total capacity (default 6 MB).
	SizeBytes int
	// LineBytes is the cache-line size (default 128 B).
	LineBytes int
	// SectorBytes is the fill granularity (default 32 B, 4 per line).
	SectorBytes int
	// Ways is the set associativity (default 16).
	Ways int
}

// DefaultLLCConfig is the paper's Table II LLC.
func DefaultLLCConfig() LLCConfig {
	return LLCConfig{SizeBytes: 6 << 20, LineBytes: 128, SectorBytes: 32, Ways: 16}
}

// Validate checks structural consistency.
func (c LLCConfig) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.LineBytes <= 0 || c.SectorBytes <= 0 || c.Ways <= 0:
		return fmt.Errorf("gpu: LLC parameters must be positive")
	case c.LineBytes%c.SectorBytes != 0:
		return fmt.Errorf("gpu: line size %d not a multiple of sector size %d", c.LineBytes, c.SectorBytes)
	case c.SectorsPerLine() > maxSectorsPerLine:
		return fmt.Errorf("gpu: %d sectors per line exceed the %d a line's sector masks hold", c.SectorsPerLine(), maxSectorsPerLine)
	case c.SizeBytes%(c.LineBytes*c.Ways) != 0:
		return fmt.Errorf("gpu: size %d not divisible into %d-way sets of %d-byte lines", c.SizeBytes, c.Ways, c.LineBytes)
	}
	return nil
}

// SectorsPerLine returns the number of sectors per line.
func (c LLCConfig) SectorsPerLine() int { return c.LineBytes / c.SectorBytes }

// Sets returns the number of cache sets.
func (c LLCConfig) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// LLCStats reports cache activity.
type LLCStats struct {
	Reads, Writes         int64
	ReadHits, WriteHits   int64
	Evictions, Writebacks int64
}

// HitRate returns the overall hit fraction.
func (s LLCStats) HitRate() float64 {
	total := s.Reads + s.Writes
	if total == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(total)
}

type llcLine struct {
	tag    uint64
	valid  bool
	sector uint8 // per-sector valid bits
	dirty  uint8 // per-sector dirty bits
	lru    uint64
}

// maxSectorsPerLine is the widest line llcLine's sector masks track.
const maxSectorsPerLine = 8

// LLC is a sectored, write-back, write-validate last-level cache operating
// on 32-byte sector addresses. Write misses of a full sector allocate
// without fetching (GPU stores are write-validate), so only read misses
// generate DRAM reads.
type LLC struct {
	cfg     LLCConfig
	lines   []llcLine // every set's ways: set s is lines[s*Ways : (s+1)*Ways]
	sets    uint64    // cfg.Sets()
	tick    uint64
	perLine int
	stats   LLCStats
}

// NewLLC builds the cache.
func NewLLC(cfg LLCConfig) (*LLC, error) {
	l := new(LLC)
	if err := l.Reset(cfg); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset rebuilds l for cfg exactly as NewLLC(cfg) would: every line
// invalid, the LRU clock and the statistics zeroed, so a reset cache
// makes the same hit, victim and writeback decisions as a fresh one.
// It reuses the line storage l already holds when that is large
// enough; the zero LLC holds none. On error l is unchanged.
func (l *LLC) Reset(cfg LLCConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	n := cfg.Sets() * cfg.Ways
	lines := l.lines
	if cap(lines) < n {
		lines = make([]llcLine, n)
	} else {
		lines = lines[:n]
		clear(lines)
	}
	*l = LLC{cfg: cfg, lines: lines, sets: uint64(cfg.Sets()), perLine: cfg.SectorsPerLine()}
	return nil
}

// Stats returns a snapshot of cache statistics.
func (l *LLC) Stats() LLCStats { return l.stats }

// Access performs one sector access. It returns whether the access missed
// (needs a DRAM read — only for read misses) and any dirty sectors
// written back by an eviction.
func (l *LLC) Access(sector uint64, write bool) (dramRead bool, writebacks []uint64) {
	l.tick++
	if write {
		l.stats.Writes++
	} else {
		l.stats.Reads++
	}
	lineAddr := sector / uint64(l.perLine)
	sectorIdx := uint(sector % uint64(l.perLine))
	setIdx := lineAddr % l.sets
	tag := lineAddr / l.sets
	ways := uint64(l.cfg.Ways)
	set := l.lines[setIdx*ways : (setIdx+1)*ways]

	// Lookup.
	for w := range set {
		ln := &set[w]
		if !ln.valid || ln.tag != tag {
			continue
		}
		ln.lru = l.tick
		if ln.sector&(1<<sectorIdx) != 0 {
			if write {
				ln.dirty |= 1 << sectorIdx
				l.stats.WriteHits++
			} else {
				l.stats.ReadHits++
			}
			return false, nil
		}
		// Line present, sector absent.
		ln.sector |= 1 << sectorIdx
		if write {
			ln.dirty |= 1 << sectorIdx
			return false, nil // write-validate: no fetch
		}
		return true, nil
	}

	// Miss: pick the LRU victim.
	victim := 0
	for w := 1; w < len(set); w++ {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].lru < set[victim].lru {
			victim = w
		}
	}
	ln := &set[victim]
	if ln.valid {
		l.stats.Evictions++
		if ln.dirty != 0 {
			base := (ln.tag*l.sets + setIdx) * uint64(l.perLine)
			for s := 0; s < l.perLine; s++ {
				if ln.dirty&(1<<uint(s)) != 0 {
					writebacks = append(writebacks, base+uint64(s))
					l.stats.Writebacks++
				}
			}
		}
	}
	*ln = llcLine{tag: tag, valid: true, lru: l.tick}
	ln.sector = 1 << sectorIdx
	if write {
		ln.dirty = 1 << sectorIdx
		return false, writebacks
	}
	return true, writebacks
}
