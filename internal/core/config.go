// Package core implements the paper's SMT out-of-order processor: an
// 8-way MIPS R10000-like superscalar extended with simultaneous
// multithreading (shared physical register pools, per-thread rename
// tables, per-thread retirement) and one of two media ISAs: the
// MMX-like extension (two 64-bit media units, SIMD issue width 2) or
// the MOM streaming extension (one media unit with two vector pipes,
// SIMD issue width 1).
package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"mediasmt/internal/mem"
)

// ISAKind selects which media extension the processor implements.
type ISAKind uint8

const (
	// ISAMMX is the conventional packed-SIMD extension.
	ISAMMX ISAKind = iota
	// ISAMOM is the streaming vector packed-SIMD extension.
	ISAMOM
)

func (k ISAKind) String() string {
	if k == ISAMOM {
		return "mom"
	}
	return "mmx"
}

// Policy selects the SMT fetch policy (paper §5.3).
type Policy uint8

const (
	// PolicyRR is classic round-robin.
	PolicyRR Policy = iota
	// PolicyICOUNT prioritizes threads with the fewest instructions
	// decoded but not issued (Tullsen et al.).
	PolicyICOUNT
	// PolicyOCOUNT is ICOUNT weighted by the stream-length register:
	// threads are charged per pending operation, not per instruction.
	PolicyOCOUNT
	// PolicyBALANCE mixes scalar and vector fetch: when the vector
	// pipeline is empty, threads that fetched vector instructions last
	// time get priority, otherwise threads that did not.
	PolicyBALANCE
)

func (p Policy) String() string {
	switch p {
	case PolicyRR:
		return "RR"
	case PolicyICOUNT:
		return "IC"
	case PolicyOCOUNT:
		return "OC"
	case PolicyBALANCE:
		return "BL"
	}
	return "policy?"
}

// Config holds the architectural parameters. ConfigForThreads
// reproduces the paper's Table 1 scaling of physical registers and
// window sizes with the number of hardware contexts.
type Config struct {
	Threads int
	ISA     ISAKind
	Policy  Policy

	// Front end: up to FetchGroups groups of GroupSize instructions
	// per cycle (the paper fetches two groups of four), a per-thread
	// fetch queue, and an 8-wide decode/rename stage.
	FetchGroups int
	GroupSize   int
	FetchQCap   int
	DecodeWidth int
	CommitWidth int

	// Issue widths per queue.
	IssueInt  int
	IssueMem  int
	IssueFP   int
	IssueSIMD int

	// Functional units.
	IntALUs    int
	IntMuls    int
	FPAdds     int
	FPMuls     int
	FPDivs     int
	MediaUnits int // MMX: 2 independent units; MOM: 1 unit
	MediaPipes int // MOM: 2 parallel vector pipes within the unit

	// Window sizes.
	IQSize       int
	MQSize       int
	FQSize       int
	SQSize       int
	ROBPerThread int

	// Shared physical register pools.
	PhysInt int
	PhysFP  int
	PhysMMX int
	PhysMOM int
	PhysAcc int

	// Branch handling.
	BranchPenalty int
	PredTableBits int
	PredHistBits  int
}

// MaxHWContexts bounds the number of hardware contexts a Config may
// declare: fixed-size per-thread structures in the pipeline are sized
// by it, and Validate refuses anything beyond it. The value is
// single-sourced in internal/mem (which sizes its own per-thread
// structures from it and cannot import this package); this re-export
// keeps every existing core.MaxHWContexts reference valid.
const MaxHWContexts = mem.MaxHWContexts

// robSizes is the per-thread graduation-window size for 1/2/4/8
// contexts (total window grows sub-linearly, as in the paper's Table 1).
var robSizes = map[int]int{1: 128, 2: 96, 4: 64, 8: 48}

// SupportedThreadCounts returns, in ascending order, the hardware
// context counts ConfigForThreads can build — the paper's evaluated
// machine sizes. This is the single source of truth the CLI/HTTP bound
// checks (internal/cliflags) delegate to, so the front doors cannot
// drift from what the core actually constructs.
func SupportedThreadCounts() []int {
	out := make([]int, 0, len(robSizes))
	for n := range robSizes {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// SupportsThreads reports whether ConfigForThreads accepts the count.
func SupportsThreads(n int) bool {
	_, ok := robSizes[n]
	return ok
}

// threadCountList renders the supported counts for error messages:
// "1, 2, 4 or 8".
func threadCountList() string {
	counts := SupportedThreadCounts()
	parts := make([]string, len(counts))
	for i, n := range counts {
		parts[i] = strconv.Itoa(n)
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return strings.Join(parts[:len(parts)-1], ", ") + " or " + parts[len(parts)-1]
}

// ConfigForThreads returns the architectural parameters used by every
// experiment, sized for near-saturation performance at the given
// thread count (the paper's Table 1 methodology).
func ConfigForThreads(kind ISAKind, threads int) Config {
	rob, ok := robSizes[threads]
	if !ok {
		panic(fmt.Sprintf("core: unsupported thread count %d (want %s)", threads, threadCountList()))
	}
	c := Config{
		Threads:     threads,
		ISA:         kind,
		Policy:      PolicyRR,
		FetchGroups: 2,
		GroupSize:   4,
		FetchQCap:   16,
		DecodeWidth: 8,
		CommitWidth: 8,

		IssueInt: 4,
		IssueMem: 4,
		IssueFP:  4,

		IntALUs: 4,
		IntMuls: 1,
		FPAdds:  2,
		FPMuls:  2,
		FPDivs:  1,

		IQSize:       32,
		MQSize:       32,
		FQSize:       32,
		SQSize:       24,
		ROBPerThread: rob,

		PhysInt: 32*threads + 64,
		PhysFP:  32*threads + 32,
		PhysAcc: 2*threads + 2,

		BranchPenalty: 4,
		PredTableBits: 14,
		PredHistBits:  0,
	}
	switch kind {
	case ISAMMX:
		c.IssueSIMD = 2
		c.MediaUnits = 2
		c.MediaPipes = 1
		c.PhysMMX = 32*threads + 64
		c.PhysMOM = 16*threads + 8 // architected state only: MMX code never renames streams
	case ISAMOM:
		c.IssueSIMD = 1
		c.MediaUnits = 1
		c.MediaPipes = 2
		c.PhysMMX = 32*threads + 16 // MOM code barely touches the MMX file
		c.PhysMOM = 16*threads + 32
	}
	return c
}

// Validate reports configuration errors (insufficient physical
// registers for the architected state, zero widths, and the like).
func (c *Config) Validate() error {
	if c.Threads < 1 || c.Threads > MaxHWContexts {
		return fmt.Errorf("core: bad thread count %d (want 1..%d)", c.Threads, MaxHWContexts)
	}
	if c.PhysInt < 32*c.Threads+1 {
		return fmt.Errorf("core: %d int physical registers cannot back %d threads", c.PhysInt, c.Threads)
	}
	if c.PhysFP < 32*c.Threads+1 {
		return fmt.Errorf("core: %d fp physical registers cannot back %d threads", c.PhysFP, c.Threads)
	}
	if c.PhysMMX < 32*c.Threads+1 && c.ISA == ISAMMX {
		return fmt.Errorf("core: %d mmx physical registers cannot back %d threads", c.PhysMMX, c.Threads)
	}
	if c.PhysMOM < 16*c.Threads+1 && c.ISA == ISAMOM {
		return fmt.Errorf("core: %d mom physical registers cannot back %d threads", c.PhysMOM, c.Threads)
	}
	if c.ROBPerThread < 8 {
		return fmt.Errorf("core: graduation window %d too small", c.ROBPerThread)
	}
	if c.FetchGroups < 1 || c.GroupSize < 1 || c.DecodeWidth < 1 || c.CommitWidth < 1 {
		return fmt.Errorf("core: zero pipeline width")
	}
	if c.IssueInt < 1 || c.IssueMem < 1 || c.IssueFP < 1 || c.IssueSIMD < 1 {
		return fmt.Errorf("core: zero issue width")
	}
	for _, n := range []int{c.IQSize, c.MQSize, c.FQSize, c.SQSize} {
		if n > maxQueueCap {
			return fmt.Errorf("core: issue queue size %d, want at most %d", n, maxQueueCap)
		}
	}
	if lat := maxIssueLatency(c); lat >= wheelSize {
		return fmt.Errorf("core: issue-to-result latency up to %d cycles, want under %d", lat, wheelSize)
	}
	return checkPhysRegs(c)
}
