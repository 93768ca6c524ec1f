package core

import (
	"math/bits"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
)

// drainMemory collects finished load elements from the memory system
// and completes loads whose last element arrived. The callback is the
// pre-bound drainFn (allocating a closure here would cost one heap
// allocation per executed cycle); drainNow carries the cycle.
func (p *Processor) drainMemory(now int64) {
	p.drainNow = now
	p.memsys.Drain(now, p.drainFn)
}

// onLoadCompletion is the Drain callback: it routes one finished load
// element to its uop (the tag is the uop's index) and completes the
// load when its last element arrived.
func (p *Processor) onLoadCompletion(c mem.Completion) {
	u := &p.uops[c.Tag]
	u.elemsDone++
	if u.elemsDone == u.equiv {
		p.complete(int32(c.Tag), u, p.drainNow)
	}
}

// schedule files an issued operation on the writeback wheel under its
// completion cycle. An operation due before the next cycle to be
// written back completes at that cycle, as it would under a scan of
// every in-flight operation.
func (p *Processor) schedule(idx int32, now, doneAt int64) {
	if p.inflight == 0 {
		p.wbNext = now + 1
	}
	doneAt = max(doneAt, p.wbNext)
	if doneAt-p.wbNext >= wheelSize {
		panic("core: operation latency exceeds the writeback wheel")
	}
	b := doneAt % wheelSize
	p.wheelNext[idx] = -1
	if t := p.wheelTail[b]; t < 0 {
		p.wheelHead[b] = idx
		p.wheelBits |= 1 << b
	} else {
		p.wheelNext[t] = idx
	}
	p.wheelTail[b] = idx
	p.inflight++
}

// writeback completes scheduled operations whose results are ready:
// the wheel buckets of every cycle up to now, each in issue order.
func (p *Processor) writeback(now int64) {
	if p.inflight == 0 {
		p.wbNext = now + 1
		return
	}
	for ; p.wbNext <= now; p.wbNext++ {
		b := p.wbNext % wheelSize
		for idx := p.wheelHead[b]; idx >= 0; idx = p.wheelNext[idx] {
			p.complete(idx, &p.uops[idx], now)
			p.inflight--
		}
		p.wheelHead[b], p.wheelTail[b] = -1, -1
		p.wheelBits &^= 1 << b
	}
}

// nextWriteback returns the earliest cycle with a scheduled completion,
// or NoWakeup when nothing is in flight.
func (p *Processor) nextWriteback() int64 {
	if p.inflight == 0 {
		return NoWakeup
	}
	// Bit k of the rotated mask is the bucket of cycle wbNext+k.
	m := bits.RotateLeft64(p.wheelBits, -int(p.wbNext%wheelSize))
	return p.wbNext + int64(bits.TrailingZeros64(m))
}

// complete retires an operation from the execution core: its result
// becomes visible, dependents wake, and a mispredicted branch restarts
// its thread's fetch after the redirect penalty.
func (p *Processor) complete(idx int32, u *uop, now int64) {
	u.completed = true
	th := &p.threads[u.thread]
	if idx == th.robBase+th.robHead {
		p.headDone |= 1 << u.thread
	}
	if u.dstPhys >= 0 {
		p.wakeReg(u.dstPhys)
	}
	if u.unit == isa.UnitMedia {
		p.simdInFlight--
	}
	if u.mispred {
		th.fetchBlocked = false
		th.stallUntil = now + int64(p.cfg.BranchPenalty)
	}
}

// wakeReg marks a physical register's value available and wakes the
// queue entries parked on it (scoreboard wakeup registered at
// dispatch).
func (p *Processor) wakeReg(r int16) {
	rf := p.rf
	rf.ready[r] = true
	for l := rf.waitHead[r]; l >= 0; {
		u := &p.uops[l>>2]
		l = p.waitNext[l>>2][l&3]
		u.waitCount--
		if u.waitCount == 0 {
			p.queues[u.qid].setReady(int(u.qpos))
		}
	}
	rf.waitHead[r] = -1
}

// issue starts, queue by queue and oldest first, every ready operation
// the functional units can accept this cycle. Each queue's scan visits
// only its ready entries, and a queue with none is skipped outright.
func (p *Processor) issue(now int64) {
	if p.queues[qidInt].nready > 0 {
		p.issueInt(now)
	}
	if p.queues[qidFP].nready > 0 {
		p.issueFP(now)
	}
	if p.queues[qidSIMD].nready > 0 {
		p.issueSIMD(now)
	}
	if p.queues[qidMem].nready > 0 {
		p.issueMem(now)
	}
}

// noteIssued takes an issuing uop out of its queue slot pos.
func (p *Processor) noteIssued(pos int, u *uop) {
	th := &p.threads[u.thread]
	th.frontCount--
	th.opCount -= int32(u.equiv)
	p.queues[u.qid].remove(pos)
	u.qpos = notQueued
}

func (p *Processor) issueInt(now int64) {
	q := &p.queues[qidInt]
	alus, muls, issued := 0, 0, 0
scan:
	for w := 0; w<<6 < q.tail; w++ {
		for m := q.ready[w]; m != 0; m &= m - 1 {
			if issued >= p.cfg.IssueInt {
				break scan
			}
			pos := w<<6 | bits.TrailingZeros64(m)
			idx := q.slots[pos]
			u := &p.uops[idx]
			if u.unit == isa.UnitIMul {
				if muls >= p.cfg.IntMuls {
					continue
				}
				muls++
			} else {
				if alus >= p.cfg.IntALUs {
					continue
				}
				alus++
			}
			p.noteIssued(pos, u)
			p.schedule(idx, now, now+int64(u.lat))
			issued++
			p.intIssuedNow++
		}
	}
}

func (p *Processor) issueFP(now int64) {
	q := &p.queues[qidFP]
	adds, mulsUsed, issued := 0, 0, 0
scan:
	for w := 0; w<<6 < q.tail; w++ {
		for m := q.ready[w]; m != 0; m &= m - 1 {
			if issued >= p.cfg.IssueFP {
				break scan
			}
			pos := w<<6 | bits.TrailingZeros64(m)
			idx := q.slots[pos]
			u := &p.uops[idx]
			switch u.unit {
			case isa.UnitFPDiv:
				// Unpipelined divide/sqrt: find a free unit.
				unit := -1
				for k, b := range p.fpDivBusyUntil {
					if b <= now {
						unit = k
						break
					}
				}
				if unit < 0 {
					continue
				}
				p.fpDivBusyUntil[unit] = now + int64(u.busy)
			case isa.UnitFPMul:
				if mulsUsed >= p.cfg.FPMuls {
					continue
				}
				mulsUsed++
			default:
				if adds >= p.cfg.FPAdds {
					continue
				}
				adds++
			}
			p.noteIssued(pos, u)
			p.schedule(idx, now, now+int64(u.lat))
			issued++
		}
	}
}

// issueSIMD starts media operations. With the MMX configuration two
// independent pipelined media units accept up to two operations per
// cycle. With the MOM configuration a single media unit with
// MediaPipes parallel vector pipes accepts one stream instruction,
// which occupies the unit for ceil(SLen/pipes) cycles and delivers its
// last sub-operation result after that occupancy plus the op latency
// (both resolved at dispatch into busy and lat).
func (p *Processor) issueSIMD(now int64) {
	q := &p.queues[qidSIMD]
	issued := 0
scan:
	for w := 0; w<<6 < q.tail; w++ {
		for m := q.ready[w]; m != 0; m &= m - 1 {
			if issued >= p.cfg.IssueSIMD {
				break scan
			}
			unit := -1
			for k, b := range p.mediaBusyUntil {
				if b <= now {
					unit = k
					break
				}
			}
			if unit < 0 {
				break scan
			}
			pos := w<<6 | bits.TrailingZeros64(m)
			idx := q.slots[pos]
			u := &p.uops[idx]
			p.mediaBusyUntil[unit] = now + int64(u.busy)
			p.noteIssued(pos, u)
			p.schedule(idx, now, now+int64(u.lat))
			p.simdInFlight++
			issued++
			p.simdIssuedNow++
		}
	}
}

// issueMem starts memory operations: one cycle of address generation,
// then loads stream their element accesses into the memory system
// while stores complete (their data drains into the write buffer at
// commit). A load whose line matches an older in-flight store of the
// same thread forwards from the store queue.
func (p *Processor) issueMem(now int64) {
	q := &p.queues[qidMem]
	issued := 0
scan:
	for w := 0; w<<6 < q.tail; w++ {
		for m := q.ready[w]; m != 0; m &= m - 1 {
			if issued >= p.cfg.IssueMem {
				break scan
			}
			pos := w<<6 | bits.TrailingZeros64(m)
			idx := q.slots[pos]
			u := &p.uops[idx]
			p.noteIssued(pos, u)
			issued++
			if u.isStore {
				p.schedule(idx, now, now+1)
				continue
			}
			// Load: try store-to-load forwarding (scalar loads only;
			// vector element granularity makes forwarding impractical
			// in hardware of this era, so streams always go to memory).
			// The forwarding store issued by now, so its address was
			// ready by now+1 and the data arrives at now+2.
			if !u.isVector && p.canForward(idx, u) {
				p.st.LoadsForwarded++
				p.schedule(idx, now, now+2)
				continue
			}
			p.activeLoads = append(p.activeLoads, activeLoad{idx: idx, addrReadyAt: now + 1})
		}
	}
}

// canForward reports whether an older issued store of the load's
// thread writes the load's line.
func (p *Processor) canForward(idx int32, ld *uop) bool {
	const lineMask = ^uint64(31)
	th := &p.threads[ld.thread]
	age := p.robAge(th, idx)
	// pendingStores is in program order: stop at the first younger one.
	for _, si := range th.pendingStores {
		if p.robAge(th, si) > age {
			break
		}
		if st := &p.uops[si]; st.qpos == notQueued && st.addr&lineMask == ld.addr&lineMask {
			return true
		}
	}
	return false
}

// activeLoad is an issued load still sending element accesses, with
// the cycle its address is generated.
type activeLoad struct {
	idx         int32
	addrReadyAt int64
}

// sendLoadElements pushes pending load element accesses into the
// memory system, oldest load first, as long as ports accept them.
func (p *Processor) sendLoadElements(now int64) {
	finished := false
	for _, ld := range p.activeLoads {
		u := &p.uops[ld.idx]
		if now >= ld.addrReadyAt {
			for u.elemsSent < u.equiv {
				ok := p.memsys.Access(now, mem.Request{
					Tag:    uint64(ld.idx),
					Addr:   u.addr + uint64(u.elemsSent)*uint64(u.stride),
					Thread: u.thread,
					Vector: u.isVector,
				})
				if !ok {
					break
				}
				u.elemsSent++
				p.st.LoadElemSent++
			}
		}
		if u.elemsSent >= u.equiv {
			finished = true
		}
	}
	if !finished {
		return
	}
	w := 0
	for _, ld := range p.activeLoads {
		if u := &p.uops[ld.idx]; u.elemsSent < u.equiv {
			p.activeLoads[w] = ld
			w++
		}
	}
	p.activeLoads = p.activeLoads[:w]
}

// commit retires completed instructions in order within each thread,
// round-robin across threads, up to CommitWidth per cycle. Stores
// drain their elements into the write buffer here (write-through at
// retirement); a store blocks its thread's commit until all elements
// are accepted.
func (p *Processor) commit(now int64) {
	budget := p.cfg.CommitWidth
	var cand [MaxHWContexts]uint8
	nc := p.rotation(&cand, p.headDone)
	// Each round visits, in rotation order, the threads whose head is
	// completed: a thread leaves once its new head is not (nothing
	// completes during commit). A store that cannot drain stays and is
	// retried next round, as long as the round made progress.
	for budget > 0 && nc > 0 {
		progress := false
		w := 0
		for k := 0; k < nc && budget > 0; k++ {
			th := &p.threads[cand[k]]
			head := th.robBase + th.robHead
			u := &p.uops[head]
			if u.isStore && !p.drainStore(now, head, u) {
				cand[w] = cand[k]
				w++
				continue
			}
			p.retire(th, u)
			budget--
			progress = true
			if p.headDone&(1<<th.id) != 0 {
				cand[w] = cand[k]
				w++
			}
		}
		if !progress {
			break
		}
		nc = w
	}
}

// drainStore sends a committing store's element accesses, tagged with
// its uop index; it reports whether the store fully drained.
func (p *Processor) drainStore(now int64, idx int32, u *uop) bool {
	for u.elemsSent < u.equiv {
		ok := p.memsys.Access(now, mem.Request{
			Tag:    uint64(idx),
			Addr:   u.addr + uint64(u.elemsSent)*uint64(u.stride),
			Thread: u.thread,
			Store:  true,
			Vector: u.isVector,
		})
		if !ok {
			return false
		}
		u.elemsSent++
		p.st.StoreElemSent++
	}
	return true
}

// retire removes the head instruction u from the graduation window,
// frees the previous mapping of its destination and accumulates
// statistics. The slot is reused by the next dispatch into it.
func (p *Processor) retire(th *threadState, u *uop) {
	if th.robHead++; th.robHead == p.robSize {
		th.robHead = 0
	}
	th.robCount--
	if th.robCount > 0 && p.uops[th.robBase+th.robHead].completed {
		p.headDone |= 1 << th.id
	} else {
		p.headDone &^= 1 << th.id
	}
	if u.oldDst >= 0 {
		p.rf.release(u.oldDst)
	}
	if u.isStore {
		// Stores retire in program order: this is the oldest pending one.
		ps := th.pendingStores
		th.pendingStores = ps[:copy(ps, ps[1:])]
	}
	eq := int64(u.equiv)
	p.st.Committed++
	p.st.CommittedEquiv += eq
	p.st.Weighted += th.factor
	p.st.CommittedByClass[u.class]++
	p.st.CommittedEqByCls[u.class] += eq
	p.st.PerThreadCommitted[th.id]++
	if th.robCount == 0 && th.progEnd && !th.hasPend && th.fqCount == 0 {
		p.drainSignal = true
	}
}
