package core

import "math/bits"

// Issue-queue identifiers, indexing Processor.queues.
const (
	qidInt uint8 = iota
	qidMem
	qidFP
	qidSIMD
)

// notQueued is uop.qpos once the uop has issued.
const notQueued = ^uint16(0)

// maxQueueCap bounds an issue queue's capacity: its slots, twice as
// many, must be numbered below notQueued.
const maxQueueCap = 1 << 14

// issueQueue is one issue queue: uop indices in dispatch order, with
// bitmasks of the occupied and of the ready slots (occupied, sources
// all available). Issuing an entry leaves a hole instead of shifting
// the entries behind it, so a waiting entry keeps its slot, which its
// uop records (uop.qpos): wakeup sets the entry's ready bit directly,
// and issue walks only the ready bits, oldest first, without touching
// a waiting entry. When the tail reaches the end of the slots, the
// occupied entries are packed to the front; the slots number at least
// twice the capacity, so that happens at most once per capacity
// dispatches.
type issueQueue struct {
	slots []int32
	used  []uint64
	ready []uint64
	tail  int // next free slot
	count int // occupied slots
	// nready counts the ready bits: issue and NextWakeup skip a queue
	// with none, which is most queues on most cycles.
	nready int
	cap    int
}

func newIssueQueue(capacity int) issueQueue {
	n := max(64, (2*capacity+63)&^63)
	return issueQueue{
		slots: make([]int32, n),
		used:  make([]uint64, n/64),
		ready: make([]uint64, n/64),
		cap:   capacity,
	}
}

func (q *issueQueue) full() bool { return q.count >= q.cap }

// push appends a dispatched uop and records its slot.
func (q *issueQueue) push(p *Processor, idx int32, u *uop) {
	if q.tail == len(q.slots) {
		q.pack(p)
	}
	pos := q.tail
	q.tail++
	q.slots[pos] = idx
	q.used[pos>>6] |= 1 << (pos & 63)
	q.count++
	u.qpos = uint16(pos)
	if u.waitCount == 0 {
		q.setReady(pos)
	}
}

func (q *issueQueue) setReady(pos int) {
	q.ready[pos>>6] |= 1 << (pos & 63)
	q.nready++
}

// remove empties an issued entry's slot; the entry was ready.
func (q *issueQueue) remove(pos int) {
	q.used[pos>>6] &^= 1 << (pos & 63)
	q.ready[pos>>6] &^= 1 << (pos & 63)
	q.count--
	q.nready--
}

// pack moves the occupied entries, in order, to the front of the slots.
func (q *issueQueue) pack(p *Processor) {
	used, ready := q.used, q.ready
	n := 0
	for w, m := range used {
		r := ready[w]
		used[w], ready[w] = 0, 0
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			idx := q.slots[w<<6|b]
			q.slots[n] = idx
			p.uops[idx].qpos = uint16(n)
			used[n>>6] |= 1 << (n & 63)
			ready[n>>6] |= (r >> b & 1) << (n & 63)
			n++
		}
	}
	q.tail = n
}
