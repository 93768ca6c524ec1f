package core

import (
	"fmt"
	"math"

	"mediasmt/internal/isa"
)

// regFiles is the physical register state: one shared pool per
// architectural namespace, each with its free list. All threads
// allocate from the same pools (the paper's shared common free register
// pool), which is what lets a single thread use the whole machine when
// running alone.
//
// The pools share one register numbering (pool f holds a contiguous
// range), so the ready scoreboard and the waiter lists (the queue
// entries whose sources are outstanding, woken when the producer
// completes) are flat arrays indexed by register number alone. A
// waiter list is threaded through Processor.waitNext: waitHead[r] is
// the link to its first waiter, -1 if none.
type regFiles struct {
	free     [isa.RFAcc + 1][]int16
	pool     []isa.RegFile // each register's pool
	ready    []bool
	waitHead []int32
}

// maxPhysRegs bounds the registers of all pools together: register
// numbers are int16 in the uop.
const maxPhysRegs = math.MaxInt16

// poolSizes returns the physical register count of each pool.
func poolSizes(cfg *Config) [isa.RFAcc + 1]int {
	var n [isa.RFAcc + 1]int
	n[isa.RFInt] = cfg.PhysInt
	n[isa.RFFP] = cfg.PhysFP
	n[isa.RFMMX] = cfg.PhysMMX
	n[isa.RFMOM] = cfg.PhysMOM
	n[isa.RFAcc] = cfg.PhysAcc
	return n
}

func newRegFiles(cfg *Config) *regFiles {
	rf := &regFiles{}
	base := 0
	for f, n := range poolSizes(cfg) {
		// Hand registers out in ascending order.
		rf.free[f] = make([]int16, 0, n)
		for i := n - 1; i >= 0; i-- {
			rf.free[f] = append(rf.free[f], int16(base+i))
		}
		for range n {
			rf.pool = append(rf.pool, isa.RegFile(f))
		}
		base += n
	}
	rf.ready = make([]bool, base)
	rf.waitHead = make([]int32, base)
	for r := range rf.waitHead {
		rf.waitHead[r] = -1
	}
	return rf
}

// checkPhysRegs reports a configuration whose pools cannot be numbered.
func checkPhysRegs(cfg *Config) error {
	total := 0
	for _, n := range poolSizes(cfg) {
		if n < 0 {
			return fmt.Errorf("core: negative physical register count %d", n)
		}
		total += n
	}
	if total > maxPhysRegs {
		return fmt.Errorf("core: %d physical registers in all, want at most %d", total, maxPhysRegs)
	}
	return nil
}

// alloc pops a free physical register of pool f; ok is false when the
// pool is exhausted (a rename stall).
func (rf *regFiles) alloc(f isa.RegFile) (r int16, ok bool) {
	free := rf.free[f]
	n := len(free)
	if n == 0 {
		return -1, false
	}
	r = free[n-1]
	rf.free[f] = free[:n-1]
	rf.ready[r] = false
	return r, true
}

// release returns a register to its pool.
func (rf *regFiles) release(r int16) {
	rf.ready[r] = false
	f := rf.pool[r]
	rf.free[f] = append(rf.free[f], r)
}
