package memctrl

import (
	"math/bits"

	"smores/internal/gddr6x"
)

// maxBanks bounds the bank count (gddr6x.Timing.Validate rejects more):
// the scheduler tracks banks in one machine word.
const maxBanks = 64

// maxQueueCap bounds the queue capacities (Config.validate rejects more):
// slot links are int16.
const maxQueueCap = 1<<15 - 1

// noSlot ends a slot list.
const noSlot = -1

// slot holds one queued request and links it into its bank's list.
type slot struct {
	req Request
	// stamp is the request's arrival order within its queue: FR-FCFS
	// picks the smallest stamp among the candidates of several banks.
	stamp uint64
	// next is the bank's next-newer request, or the next free slot.
	next int16
}

// queue is one request queue. Requests stay in the slot Enqueue put them
// in until a column command serves them; each bank's requests are linked
// oldest first. Per bank the queue keeps its oldest request (head), its
// oldest request to the open row (first) and the bank-wide summaries the
// scheduler asks about in machine words, so a command costs the banks it
// touches instead of a scan of every queued request. Every path that
// changes a queue or a row keeps them exact: Enqueue, column issue,
// ACTIVATE (the bank's list is walked for the new row) and every
// PRECHARGE.
//
// colAt and prepAt are issue horizons: lower bounds on the first clock at
// which some hit bank could take a column command and some bank in
// oldMiss its PRECHARGE or ACTIVATE. A device ready clock only rises with
// commands, so a horizon stays valid until an event makes a bank ready
// earlier; each such event lowers it to that bank's exact ready clock
// (Controller.lowerHorizons). A scan that issues nothing raises it to the
// exact bound again.
type queue struct {
	slots []slot // grows with the queue's high-water mark
	free  int16  // first unused slot, linked through next
	kind  Kind
	n     int    // queued requests
	seq   uint64 // next arrival stamp

	head  [maxBanks]int16 // oldest request per bank
	tail  [maxBanks]int16 // newest request per bank
	first [maxBanks]int16 // oldest request to the bank's open row
	hits  uint64          // banks whose first is a slot
	// oldMiss holds the banks whose oldest request misses the open row:
	// the banks the queue wants a PRECHARGE (open) or ACTIVATE (closed) for.
	oldMiss uint64

	colAt, prepAt int64
}

// init empties q for requests of kind k.
func (q *queue) init(k Kind) {
	q.kind, q.free = k, noSlot
	for b := range q.head {
		q.head[b], q.tail[b], q.first[b] = noSlot, noSlot, noSlot
	}
}

// push queues a copy of r, stamped with addr (its DRAM coordinate) and
// arrival clock now; hit reports whether addr's row is open.
func (q *queue) push(r *Request, addr gddr6x.Address, now int64, hit bool) {
	s := q.free
	if s == noSlot {
		q.slots = append(q.slots, slot{})
		s = int16(len(q.slots) - 1)
	} else {
		q.free = q.slots[s].next
	}
	sl := &q.slots[s]
	sl.req, sl.stamp, sl.next = *r, q.seq, noSlot
	sl.req.Addr, sl.req.Arrive = addr, now
	q.seq++
	q.n++

	b := addr.Bank
	bit := uint64(1) << b
	if q.head[b] == noSlot {
		q.head[b] = s
		if !hit {
			q.oldMiss |= bit
		}
	} else {
		q.slots[q.tail[b]].next = s
	}
	q.tail[b] = s
	if hit && q.first[b] == noSlot {
		q.first[b] = s
		q.hits |= bit
	}
}

// take unlinks slot s, its bank's oldest request to the open row, after a
// column command served it, and frees the slot. The slot's request stays
// readable until the next push.
func (q *queue) take(s int16) {
	sl := &q.slots[s]
	b, row, next := sl.req.Addr.Bank, sl.req.Addr.Row, sl.next
	bit := uint64(1) << b
	if q.head[b] == s {
		q.head[b] = next
		if next == noSlot {
			q.tail[b] = noSlot
		} else if q.slots[next].req.Addr.Row != row {
			q.oldMiss |= bit
		}
	} else {
		// Every request before s misses: s was the bank's oldest hit.
		p := q.head[b]
		for q.slots[p].next != s {
			p = q.slots[p].next
		}
		q.slots[p].next = next
		if next == noSlot {
			q.tail[b] = p
		}
	}
	f := next
	for f != noSlot && q.slots[f].req.Addr.Row != row {
		f = q.slots[f].next
	}
	q.first[b] = f
	if f == noSlot {
		q.hits &^= bit
	}
	sl.next, q.free = q.free, s
	q.n--
}

// rowOpened re-walks bank b's list after an ACTIVATE opened row.
func (q *queue) rowOpened(b int, row uint32) {
	h := q.head[b]
	if h == noSlot {
		return
	}
	bit := uint64(1) << uint(b)
	f := h
	for f != noSlot && q.slots[f].req.Addr.Row != row {
		f = q.slots[f].next
	}
	q.first[b] = f
	q.hits &^= bit
	if f != noSlot {
		q.hits |= bit
	}
	q.oldMiss &^= bit
	if f != h {
		q.oldMiss |= bit
	}
}

// rowClosed records a PRECHARGE of bank b: none of its requests hit, so
// a queued one wants an ACTIVATE.
func (q *queue) rowClosed(b int) {
	bit := uint64(1) << uint(b)
	q.first[b] = noSlot
	q.hits &^= bit
	if q.head[b] != noSlot {
		q.oldMiss |= bit
	}
}

// oldest returns the slot with the smallest stamp among list[b] for the
// banks b of m (m must be non-empty).
func (q *queue) oldest(list *[maxBanks]int16, m uint64) int16 {
	best := list[lowBank(&m)]
	for m != 0 {
		if s := list[lowBank(&m)]; q.slots[s].stamp < q.slots[best].stamp {
			best = s
		}
	}
	return best
}

// lowBank pops the lowest set bank of *m.
func lowBank(m *uint64) int {
	b := bits.TrailingZeros64(*m)
	*m &= *m - 1
	return b
}
