package core

// Event-driven scheduling. The per-cycle Cycle method stays the
// authoritative definition of processor behaviour; this file adds the
// seam that lets a run loop skip cycles Cycle would provably spend
// doing nothing: NextWakeup computes the earliest cycle at which any
// pipeline stage or the memory system could make observable progress
// (including pure stat mutation such as a port-reject retry), and
// AdvanceTo accounts a skipped idle span exactly as the tick loop
// would have — one Cycles and one CyclesNoIssue increment per cycle,
// with the round-robin rotation kept in step.
//
// The invariant, enforced by the cross-engine equivalence tests in
// internal/sim: running Cycle only at wakeup times produces the same
// architectural state and the same statistics as running it every
// cycle.

import (
	"math"
	"math/bits"

	"mediasmt/internal/isa"
)

// NoWakeup means the processor has no future work of its own: nothing
// in flight, nothing queued, nothing fetchable, and a quiescent memory
// system.
const NoWakeup = int64(math.MaxInt64)

// AdvanceTo jumps the clock from Now to t, accounting every skipped
// cycle as an executed no-issue cycle, exactly as the tick loop counts
// an idle cycle. The caller must have established — normally via
// NextWakeup — that Cycle would do no work in [Now, t).
func (p *Processor) AdvanceTo(t int64) {
	if t <= p.now {
		return
	}
	skipped := t - p.now
	p.st.Cycles += skipped
	p.st.CyclesNoIssue += skipped
	// Dispatch attempts a thread's oldest fetched instruction every
	// cycle and counts the stall it hits. On a skippable span nothing
	// commits, issues or frees a register, so each thread's stall class
	// is frozen: charge it once per skipped cycle, mirroring
	// dispatchOne's check order exactly.
	for i := range p.threads {
		th := &p.threads[i]
		if th.fqCount == 0 {
			continue
		}
		if th.robCount == p.robSize {
			p.st.ROBStalls += skipped
			continue
		}
		in := &p.fq[th.fqBase+th.fqHead]
		if p.queueFull(in.Op) {
			p.st.QueueStalls += skipped
			continue
		}
		// A free destination register would mean dispatch could
		// progress, and NextWakeup never skips such a cycle.
		if d := in.Dst; d != isa.RegNone && len(p.rf.free[d.File()]) == 0 {
			p.st.RenameStalls += skipped
		}
	}
	// fetch rotates the round-robin pointer once per cycle whether or
	// not anything fetches; keep it in step across the skipped span.
	p.rr = (p.rr + int(skipped%int64(p.cfg.Threads))) % p.cfg.Threads
	p.now = t
}

// TakeDrainSignal reports whether a context ran out of program work
// since the last call, and clears the signal. The run loop uses it to
// scan for drained contexts only when one can actually exist, instead
// of scanning every cycle.
func (p *Processor) TakeDrainSignal() bool {
	s := p.drainSignal
	p.drainSignal = false
	return s
}

// NextWakeup returns the earliest cycle >= Now at which Cycle could do
// any observable work, or NoWakeup when the processor and memory
// system are both fully quiescent. "Work" includes stat-mutating
// retries (a blocked store drain, a port-rejected load element), so
// every cycle in [Now, NextWakeup) is a pure idle cycle under the tick
// loop: Cycles++ and CyclesNoIssue++ and nothing else.
func (p *Processor) NextWakeup() int64 {
	now := p.now
	t := NoWakeup
	min := func(v int64) {
		if v < t {
			t = v
		}
	}

	// Commit: a completed graduation-window head retries every cycle
	// (a store head may spend several cycles draining its elements
	// into the write buffer, mutating memory stats on each retry).
	if p.headDone != 0 {
		return now
	}

	// Writeback wakes at the earliest non-empty wheel bucket.
	if w := p.nextWriteback(); w <= now {
		return now
	} else {
		min(w)
	}

	// Loads still streaming element accesses retry every cycle once
	// their address is ready (ports re-arbitrate per cycle).
	for _, ld := range p.activeLoads {
		if ld.addrReadyAt <= now {
			return now
		}
		min(ld.addrReadyAt)
	}

	// Issue: a ready queue entry retries every cycle, except when every
	// functional unit that could serve it is busy until a known time.
	if w := p.nextIssueWakeup(now); w <= now {
		return now
	} else {
		min(w)
	}

	// Fetch: a thread that can fetch wakes at its stall horizon. The
	// blocked cases (mispredict, I-miss, full fetch queue) wake through
	// the event that unblocks them: branch completion, I-cache fill,
	// dispatch progress.
	for i := range p.threads {
		th := &p.threads[i]
		if th.idle || !th.hasPend || th.fetchBlocked ||
			th.fqCount >= p.fqCap || !p.memsys.FetchReady(int(th.id)) {
			continue
		}
		if th.stallUntil <= now {
			return now
		}
		min(th.stallUntil)
	}

	// Dispatch progresses whenever some thread's oldest fetched
	// instruction has window room, queue room and a rename register.
	if p.canDispatchAny() {
		return now
	}

	min(p.memsys.NextEvent(now))
	return t
}

// nextIssueWakeup returns the earliest cycle >= now at which a queued
// ready operation could issue: now when one only lost per-cycle width
// or port arbitration, the earliest unit-free time when every eligible
// unpipelined unit is busy, NoWakeup when no queued operation has its
// sources ready (those wake through their producers' completions).
func (p *Processor) nextIssueWakeup(now int64) int64 {
	if p.queues[qidInt].nready > 0 || p.queues[qidMem].nready > 0 {
		return now
	}
	t := NoWakeup
	if q := &p.queues[qidFP]; q.nready > 0 {
		// A ready divide waits for a free divider; anything else only
		// for issue width.
		for w := 0; w<<6 < q.tail; w++ {
			for m := q.ready[w]; m != 0; m &= m - 1 {
				if p.uops[q.slots[w<<6|bits.TrailingZeros64(m)]].unit != isa.UnitFPDiv {
					return now
				}
			}
		}
		w := earliestFree(p.fpDivBusyUntil, now)
		if w <= now {
			return now
		}
		t = w
	}
	if p.queues[qidSIMD].nready > 0 {
		w := earliestFree(p.mediaBusyUntil, now)
		if w <= now {
			return now
		}
		if w < t {
			t = w
		}
	}
	return t
}

// earliestFree returns now when any unit is free, else the earliest
// busy-until time.
func earliestFree(busyUntil []int64, now int64) int64 {
	t := NoWakeup
	for _, b := range busyUntil {
		if b <= now {
			return now
		}
		if b < t {
			t = b
		}
	}
	return t
}

// canDispatchAny reports whether any thread's oldest fetched
// instruction could rename and dispatch this cycle: graduation-window
// room, issue-queue room, and a free destination register.
func (p *Processor) canDispatchAny() bool {
	for i := range p.threads {
		th := &p.threads[i]
		if th.fqCount == 0 || th.robCount == p.robSize {
			continue
		}
		in := &p.fq[th.fqBase+th.fqHead]
		if p.queueFull(in.Op) {
			continue
		}
		if d := in.Dst; d != isa.RegNone && len(p.rf.free[d.File()]) == 0 {
			continue
		}
		return true
	}
	return false
}
