package memctrl

import "math/bits"

// maxBanks bounds the bank count (gddr6x.Timing.Validate rejects more):
// the scheduler tracks banks in one machine word.
const maxBanks = 64

// bankIndex summarizes one request queue per bank against the device's
// open rows, so the scheduler visits only banks that can act instead of
// rescanning every queued request on every tick. It is kept exact by
// every path that changes a queue or a row: Enqueue, column issue,
// ACTIVATE (the bank is recounted for the new row) and every PRECHARGE.
type bankIndex struct {
	queued [maxBanks]int32 // requests per bank
	hit    [maxBanks]int32 // of those, requests to the bank's open row
	hits   uint64          // banks with hit > 0
	miss   uint64          // banks with queued > hit
}

// sync recomputes bank b's mask bits from its counts.
func (x *bankIndex) sync(b int) {
	bit := uint64(1) << uint(b)
	x.hits &^= bit
	x.miss &^= bit
	if x.hit[b] > 0 {
		x.hits |= bit
	}
	if x.queued[b] > x.hit[b] {
		x.miss |= bit
	}
}

// queue is one request queue in arrival order plus its bank index.
// Requests are held by value: Request has no pointer fields, so queue
// shifts are plain memmoves the garbage collector never scans.
type queue struct {
	reqs []Request
	kind Kind
	bankIndex
}

// push appends r; hit reports whether r targets its bank's open row.
func (q *queue) push(r *Request, hit bool) {
	q.reqs = append(q.reqs, *r)
	b := r.Addr.Bank
	q.queued[b]++
	if hit {
		q.hit[b]++
	}
	q.sync(b)
}

// remove deletes request i, which a column command just served (so it
// was a row hit).
func (q *queue) remove(i int) {
	b := q.reqs[i].Addr.Bank
	q.reqs = append(q.reqs[:i], q.reqs[i+1:]...)
	q.queued[b]--
	q.hit[b]--
	q.sync(b)
}

// rowOpened recounts bank b's hits after an ACTIVATE opened row.
func (q *queue) rowOpened(b int, row uint32) {
	if q.queued[b] == 0 {
		return
	}
	n := int32(0)
	for i := range q.reqs {
		if a := q.reqs[i].Addr; a.Bank == b && a.Row == row {
			n++
		}
	}
	q.hit[b] = n
	q.sync(b)
}

// rowClosed records a PRECHARGE of bank b: none of its requests hit.
func (q *queue) rowClosed(b int) {
	q.hit[b] = 0
	q.sync(b)
}

// lowBank pops the lowest set bank of *m.
func lowBank(m *uint64) int {
	b := bits.TrailingZeros64(*m)
	*m &= *m - 1
	return b
}
