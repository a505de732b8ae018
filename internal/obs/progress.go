package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Progress tracks completion of a long-running job (a fleet evaluation)
// and derives rate and ETA for the telemetry endpoint. Safe for
// concurrent use; nil-safe like the instruments.
type Progress struct {
	total atomic.Int64
	done  atomic.Int64

	mu    sync.Mutex
	start time.Time
	phase string
}

// NewProgress builds a tracker expecting total units of work.
func NewProgress(total int64) *Progress {
	p := &Progress{}
	p.total.Store(total)
	p.mu.Lock()
	p.start = time.Now()
	p.mu.Unlock()
	return p
}

// SetPhase labels the currently running stage (e.g. "fleet: static").
func (p *Progress) SetPhase(phase string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phase = phase
	p.mu.Unlock()
}

// Step marks n units complete.
func (p *Progress) Step(n int64) {
	if p == nil {
		return
	}
	p.done.Add(n)
}

// Snapshot is the JSON progress view served at /progress.
type Snapshot struct {
	Phase          string  `json:"phase,omitempty"`
	Done           int64   `json:"done"`
	Total          int64   `json:"total"`
	Fraction       float64 `json:"fraction"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	RatePerSecond  float64 `json:"rate_per_second"`
	ETASeconds     float64 `json:"eta_seconds"`
}

// Snapshot captures current progress with rate/ETA derived from the
// elapsed wall clock.
func (p *Progress) Snapshot() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	start := p.start
	phase := p.phase
	p.mu.Unlock()
	s := Snapshot{
		Phase:          phase,
		Done:           p.done.Load(),
		Total:          p.total.Load(),
		ElapsedSeconds: time.Since(start).Seconds(),
	}
	if s.Total > 0 {
		s.Fraction = float64(s.Done) / float64(s.Total)
	}
	if s.ElapsedSeconds > 0 {
		s.RatePerSecond = float64(s.Done) / s.ElapsedSeconds
	}
	if s.RatePerSecond > 0 && s.Total > s.Done {
		s.ETASeconds = float64(s.Total-s.Done) / s.RatePerSecond
	}
	return s
}
