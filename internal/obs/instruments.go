package obs

import (
	"math"
	"sync/atomic"
)

// FloatCounter is a monotonically increasing float: the energy half of
// a Profile cell, in femtojoules. Adds use a CAS loop; uncontended this
// costs about the same as an atomic add.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v (non-positive deltas are ignored).
func (c *FloatCounter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the accumulated total (0 on nil).
func (c *FloatCounter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}
