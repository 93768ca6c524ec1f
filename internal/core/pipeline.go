package core

import (
	"fmt"
	"math/bits"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
	"mediasmt/internal/trace"
)

// uop is one in-flight instruction. uops live in their thread's
// graduation window, a ring in Processor.uops: dispatch fills the tail
// slot in place and retirement frees the head, so a uop's lifetime is
// its window residency and its index in Processor.uops is a stable
// handle for the issue queues, the writeback wheel, register waiter
// lists, the active-load and store lists and the memory system's
// request tags.
//
// Everything issue, writeback, commit and the memory stages read is
// resolved at dispatch (unit, latency, occupancy, class, element
// count), so no later stage touches the trace.Inst or the opcode
// table, and a uop fits a cache line (see TestUopFitsCacheLine).
type uop struct {
	addr    uint64 // first element address (memory operations)
	stride  int32  // byte distance between stream elements
	dstPhys int16  // renamed destination, -1 if none
	oldDst  int16  // previous mapping of the destination, -1 if none

	// qpos is the uop's slot in its issue queue until it issues, then
	// notQueued.
	qpos uint16

	thread uint8
	unit   isa.Unit
	class  isa.Class
	qid    uint8 // issue queue, indexing Processor.queues
	// lat is the issue-to-result latency, including a stream's media
	// unit occupancy; busy is how long the op holds an unpipelined unit
	// (the FP divider's II, a stream's media unit occupancy).
	lat  uint8
	busy uint8
	// equiv is the stream-expanded instruction count (the element count
	// of a memory operation).
	equiv uint8
	// waitCount is the number of source registers still outstanding
	// (scoreboard wakeup: the uop is ready to issue when it reaches 0).
	waitCount uint8
	elemsSent uint8
	elemsDone uint8

	mispred   bool
	completed bool
	isStore   bool
	isVector  bool
}

// wheelSize is the writeback wheel's span in cycles; Validate keeps
// every issue-to-result latency below it.
const wheelSize = 64

// maxIssueLatency bounds the cycles from issue to writeback of any
// operation: the longest opcode latency plus the longest media unit
// occupancy of a stream, or the two cycles of a forwarded load.
func maxIssueLatency(cfg *Config) int {
	lat := 2
	for i := range opDescs {
		lat = max(lat, int(opDescs[i].lat))
	}
	occ := isa.MaxStreamLen
	if cfg.MediaPipes > 0 {
		occ = (isa.MaxStreamLen + cfg.MediaPipes - 1) / cfg.MediaPipes
	}
	return lat + occ
}

// threadState is one hardware context. Processor.threads holds them by
// value, with the fields the stages touch every cycle first, in 56
// bytes; the context's graduation window, fetch queue and rename map
// live in Processor-wide arrays at the context's offsets.
type threadState struct {
	// The graduation window is a ring of Processor.robSize uops at
	// Processor.uops[robBase:], the oldest at offset robHead.
	robBase  int32
	robHead  int32
	robCount int32

	// The fetch queue is a ring of Processor.fqSize instructions at
	// Processor.fq[fqBase:], the oldest at offset fqHead, with each
	// entry's misprediction flag at the same index of
	// Processor.fqMispred. It has one slot more than FetchQCap: the slot
	// after the last queued entry is the lookahead. Program.Next writes
	// the next instruction straight into it, and fetching it is just
	// counting it in, so every instruction is written once.
	fqBase  int32
	fqHead  int32
	fqCount int32

	frontCount int32 // ICOUNT: fetched but not yet issued
	opCount    int32 // OCOUNT: same, weighted by stream length

	stallUntil int64

	hasPend      bool // the lookahead slot holds the program's next instruction
	progEnd      bool
	idle         bool
	fetchBlocked bool
	fetchedVec   bool
	id           uint8

	factor float64

	// pendingStores holds the thread's dispatched, unretired stores in
	// program order (Processor.uops indices).
	pendingStores []int32

	prog trace.Program
}

// regSlot is a logical register's index in a context's rename map: no
// file has more than 32 logical registers.
func regSlot(r isa.Reg) int { return int(r.File())<<5 | r.Idx() }

// rmapSize is the length of one context's rename map.
const rmapSize = (int(isa.RFAcc) + 1) << 5

// robIdx returns the Processor.uops index of the thread's k-th oldest
// window slot.
func (p *Processor) robIdx(th *threadState, k int32) int32 {
	if k += th.robHead; k >= p.robSize {
		k -= p.robSize
	}
	return th.robBase + k
}

// robAge is a uop's position in its thread's graduation window, 0 for
// the oldest.
func (p *Processor) robAge(th *threadState, idx int32) int32 {
	a := idx - th.robBase - th.robHead
	if a < 0 {
		a += p.robSize
	}
	return a
}

// fqIdx returns the Processor.fq index of the thread's k-th oldest
// fetch-queue slot.
func (p *Processor) fqIdx(th *threadState, k int32) int32 {
	if k += th.fqHead; k >= p.fqSize {
		k -= p.fqSize
	}
	return th.fqBase + k
}

// lookahead returns the fetch-queue slot holding the thread's next
// unfetched instruction.
func (p *Processor) lookahead(th *threadState) *trace.Inst {
	return &p.fq[p.fqIdx(th, th.fqCount)]
}

// advance pulls the next instruction of the thread's program into the
// lookahead slot.
func (p *Processor) advance(th *threadState) {
	if th.prog == nil || th.progEnd {
		th.hasPend = false
		return
	}
	if th.prog.Next(p.lookahead(th)) {
		th.hasPend = true
	} else {
		th.hasPend = false
		th.progEnd = true
	}
}

// Processor is the SMT out-of-order core.
type Processor struct {
	cfg     Config
	memsys  mem.System
	pred    *Predictor
	rf      *regFiles
	threads []threadState

	// uops is the storage of every graduation window, thread t's at
	// threads[t].robBase. Every in-flight structure below holds indices
	// into it.
	uops    []uop
	robSize int32

	// fq and fqMispred are the storage of every fetch queue, thread t's
	// at threads[t].fqBase; rmap holds every rename map, thread t's at
	// t*rmapSize.
	fq        []trace.Inst
	fqMispred []bool
	fqSize    int32
	fqCap     int32
	rmap      []int16
	// waitNext[idx][i] continues the waiter list (see regFiles) of
	// uop idx's source i register while the uop waits on it. A link
	// names one source operand of a waiting uop, as its uops index
	// times 4 plus the source number; -1 ends the list.
	waitNext [][3]int32

	// queues are the issue queues, indexed by queue id (qidInt..qidSIMD).
	queues [4]issueQueue

	// The writeback timing wheel: issue files each operation under the
	// bucket of its completion cycle (mod wheelSize), so writeback
	// visits only the due buckets instead of every in-flight operation.
	// The wheel spans more cycles than any issue-to-result latency, so a
	// bucket only ever holds one cycle's operations. A bucket is a list
	// in issue order threaded through wheelNext (indexed like uops):
	// wheelHead and wheelTail hold its ends, -1 when empty. wheelBits
	// marks the non-empty buckets for NextWakeup; wbNext is the first
	// cycle not yet written back.
	wheelHead [wheelSize]int32
	wheelTail [wheelSize]int32
	wheelNext []int32
	wheelBits uint64
	wbNext    int64
	inflight  int

	// activeLoads are the issued loads still sending element accesses,
	// oldest first. A load's Processor.uops index is its memory request
	// tag: it is stable until the load retires, which is after its last
	// element completed.
	activeLoads []activeLoad

	// drainFn is the completion callback handed to mem.System.Drain,
	// bound once at construction: rebuilding the closure every executed
	// cycle was one heap allocation per cycle. drainNow carries the
	// cycle argument.
	drainFn  func(mem.Completion)
	drainNow int64

	mediaBusyUntil []int64
	fpDivBusyUntil []int64

	simdInFlight int

	// headDone and fqBusy are thread bitmasks: the thread's oldest
	// instruction has completed, the thread's fetch queue is not empty.
	// Commit and dispatch start from them instead of scanning every
	// thread.
	headDone uint32
	fqBusy   uint32

	now     int64
	rr      int
	ordBuf  []int
	keysBuf []int

	// per-cycle issue census
	intIssuedNow  int
	simdIssuedNow int

	// drainSignal is set by retire when a context runs out of program
	// work; TakeDrainSignal hands it to the run loop, which only then
	// needs to scan contexts for relaunch.
	drainSignal bool

	// hooks is the sampling seam (see hooks.go); nil when observability
	// is off, which costs Cycle a single nil check.
	hooks         *Hooks
	hookCountdown int64

	st Stats
}

// New builds a processor over the given memory system.
func New(cfg Config, m mem.System) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:            cfg,
		memsys:         m,
		pred:           NewPredictor(cfg.PredTableBits, cfg.PredHistBits, cfg.Threads),
		rf:             newRegFiles(&cfg),
		mediaBusyUntil: make([]int64, cfg.MediaUnits),
		fpDivBusyUntil: make([]int64, cfg.FPDivs),
		ordBuf:         make([]int, cfg.Threads),
		keysBuf:        make([]int, cfg.Threads),
		threads:        make([]threadState, cfg.Threads),
	}
	p.drainFn = p.onLoadCompletion
	for qid, n := range [4]int{qidInt: cfg.IQSize, qidMem: cfg.MQSize, qidFP: cfg.FQSize, qidSIMD: cfg.SQSize} {
		p.queues[qid] = newIssueQueue(n)
	}
	p.st.PerThreadCommitted = make([]int64, cfg.Threads)

	for b := range p.wheelHead {
		p.wheelHead[b], p.wheelTail[b] = -1, -1
	}

	p.robSize = int32(cfg.ROBPerThread)
	p.uops = make([]uop, cfg.Threads*cfg.ROBPerThread)
	p.waitNext = make([][3]int32, len(p.uops))
	p.wheelNext = make([]int32, len(p.uops))
	// No more loads than uops can be in flight.
	p.activeLoads = make([]activeLoad, 0, len(p.uops))
	p.fqCap = int32(cfg.FetchQCap)
	p.fqSize = p.fqCap + 1 // + the lookahead slot
	p.fq = make([]trace.Inst, cfg.Threads*int(p.fqSize))
	p.fqMispred = make([]bool, len(p.fq))
	p.rmap = make([]int16, cfg.Threads*rmapSize)
	for i := range p.threads {
		p.threads[i] = threadState{
			id:      uint8(i),
			idle:    true,
			robBase: int32(i) * p.robSize,
			fqBase:  int32(i) * p.fqSize,
			// No more stores than window slots are pending.
			pendingStores: make([]int32, 0, cfg.ROBPerThread),
		}
		rmap := p.rmap[i*rmapSize:]
		for f := isa.RFInt; f <= isa.RFAcc; f++ {
			for l := 0; l < isa.LogicalRegs(f); l++ {
				r, ok := p.rf.alloc(f)
				if !ok {
					return nil, fmt.Errorf("core: not enough %v physical registers for %d threads", f, cfg.Threads)
				}
				p.rf.ready[r] = true
				rmap[regSlot(isa.NewReg(f, l))] = r
			}
		}
	}
	return p, nil
}

// Config returns the processor's configuration.
func (p *Processor) Config() Config { return p.cfg }

// Stats returns the accumulated statistics.
func (p *Processor) Stats() *Stats { return &p.st }

// Now returns the current cycle.
func (p *Processor) Now() int64 { return p.now }

// SetProgram installs a program on a hardware context. factor is the
// EIPC conversion weight credited per committed instruction of this
// program (the per-benchmark MMX/MOM instruction-count ratio; 1 for
// MMX runs). The context must be drained.
func (p *Processor) SetProgram(ctx int, prog trace.Program, factor float64) {
	th := &p.threads[ctx]
	if !p.ContextDrained(ctx) {
		panic(fmt.Sprintf("core: SetProgram on busy context %d", ctx))
	}
	th.prog = prog
	th.factor = factor
	th.progEnd = false
	th.idle = prog == nil
	th.fetchBlocked = false
	th.stallUntil = p.now
	th.fqHead, th.fqCount = 0, 0
	p.fqBusy &^= 1 << ctx
	th.frontCount = 0
	th.opCount = 0
	th.hasPend = false
	if prog != nil {
		p.advance(th)
	}
}

// ContextDrained reports whether a context has no program work left:
// its program stream is exhausted (or absent) and the pipeline holds
// none of its instructions.
func (p *Processor) ContextDrained(ctx int) bool {
	th := &p.threads[ctx]
	if th.idle {
		return true
	}
	return th.progEnd && !th.hasPend && th.fqCount == 0 && th.robCount == 0
}

// Busy reports whether any context still has work.
func (p *Processor) Busy() bool {
	for i := range p.threads {
		if !p.ContextDrained(i) {
			return true
		}
	}
	return false
}

// Cycle advances the processor by one clock. Stages run in reverse
// pipeline order so same-cycle forwarding needs no double buffering.
func (p *Processor) Cycle() {
	now := p.now
	p.intIssuedNow, p.simdIssuedNow = 0, 0

	p.drainMemory(now)
	p.writeback(now)
	p.commit(now)
	p.sendLoadElements(now)
	p.issue(now)
	p.dispatch(now)
	p.fetch(now)
	p.memsys.Tick(now)

	switch {
	case p.intIssuedNow == 0 && p.simdIssuedNow == 0:
		p.st.CyclesNoIssue++
	case p.simdIssuedNow > 0 && p.intIssuedNow == 0:
		p.st.CyclesOnlyVector++
	case p.simdIssuedNow == 0:
		p.st.CyclesOnlyScalar++
	default:
		p.st.CyclesMixed++
	}

	p.st.Cycles++
	p.now++

	if p.hooks != nil {
		p.sampleHooks()
	}
}

// fetch selects up to FetchGroups threads by the configured policy and
// pulls up to GroupSize instructions from each, stopping a group at a
// taken branch. A mispredicted conditional branch blocks the thread's
// fetch until the branch resolves (the simulator never fetches a wrong
// path; the misprediction cost is the stall plus the redirect penalty).
func (p *Processor) fetch(now int64) {
	groups := 0
	for _, ti := range p.fetchOrder(now) {
		if groups >= p.cfg.FetchGroups {
			break
		}
		th := &p.threads[ti]
		switch p.memsys.FetchLine(now, ti, p.lookahead(th).PC) {
		case mem.FetchBusy:
			p.st.FetchConflict++
			continue
		case mem.FetchMiss:
			p.st.ICacheStalls++
			groups++
			continue
		}
		groups++
		anyVec := false
		for n := 0; n < p.cfg.GroupSize && th.hasPend && th.fqCount < p.fqCap; n++ {
			// The lookahead joins the queue in place; advance then
			// fills the next slot.
			slot := p.fqIdx(th, th.fqCount)
			in := &p.fq[slot]
			d := &opDescs[in.Op]
			mispred := false
			if d.branch && d.cond {
				p.st.CondBranches++
				if p.pred.PredictAndTrain(ti, in.PC, in.Taken) != in.Taken {
					mispred = true
					p.st.Mispredicts++
				}
			}
			p.fqMispred[slot] = mispred
			th.fqCount++
			th.frontCount++
			th.opCount += int32(d.equiv(in))
			if d.vector {
				anyVec = true
			}
			stop := d.branch && (mispred || in.Taken)
			p.advance(th)
			p.st.Fetched++
			if stop {
				if mispred {
					th.fetchBlocked = true
				}
				break
			}
		}
		th.fetchedVec = anyVec
		if th.fqCount > 0 {
			p.fqBusy |= 1 << ti
		}
	}
	if p.rr++; p.rr == p.cfg.Threads {
		p.rr = 0
	}
}

// canFetch reports whether a context may fetch this cycle. Nothing in
// it changes while fetch runs (FetchLine only touches its own thread's
// I-cache miss state), so fetchOrder evaluates it once per context
// before ranking.
func (p *Processor) canFetch(th *threadState, now int64) bool {
	return th.fqCount < p.fqCap && th.hasPend && !th.idle &&
		!th.fetchBlocked && now >= th.stallUntil && p.memsys.FetchReady(int(th.id))
}

// vecPipeEmpty reports whether the vector pipeline has no work (used
// by the BALANCE policy).
func (p *Processor) vecPipeEmpty(now int64) bool {
	if p.queues[qidSIMD].count > 0 || p.simdInFlight > 0 {
		return false
	}
	for _, b := range p.mediaBusyUntil {
		if b > now {
			return false
		}
	}
	return true
}

// fetchOrder ranks the contexts that can fetch this cycle according to
// the configured policy: ascending policy key, ties in round-robin
// rotation order.
func (p *Processor) fetchOrder(now int64) []int {
	n := len(p.threads)
	order := p.ordBuf[:0]
	t := p.rr
	for range n {
		if p.canFetch(&p.threads[t], now) {
			order = append(order, t)
		}
		if t++; t == n {
			t = 0
		}
	}
	keys := p.keysBuf[:len(order)]
	switch p.cfg.Policy {
	case PolicyICOUNT:
		for i, t := range order {
			keys[i] = int(p.threads[t].frontCount)
		}
	case PolicyOCOUNT:
		for i, t := range order {
			keys[i] = int(p.threads[t].opCount)
		}
	case PolicyBALANCE:
		empty := p.vecPipeEmpty(now)
		for i, t := range order {
			keys[i] = 1
			if p.threads[t].fetchedVec == empty {
				keys[i] = 0
			}
		}
	default:
		return order
	}
	// Stable insertion sort: ties keep round-robin rotation order.
	for i := 1; i < len(order); i++ {
		t, k := order[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			order[j+1], keys[j+1] = order[j], keys[j]
			j--
		}
		order[j+1], keys[j+1] = t, k
	}
	return order
}

// dispatch renames and inserts fetched instructions into the
// graduation window and issue queues, in order within each thread,
// round-robin across threads, up to DecodeWidth per cycle. Each round
// visits, in rotation order, the threads that can still dispatch: a
// thread leaves once it stalls (in-order within a thread) or its fetch
// queue empties.
func (p *Processor) dispatch(now int64) {
	budget := p.cfg.DecodeWidth
	var cand [MaxHWContexts]uint8
	nc := p.rotation(&cand, p.fqBusy)
	for budget > 0 && nc > 0 {
		w := 0
		for k := 0; k < nc && budget > 0; k++ {
			th := &p.threads[cand[k]]
			if !p.dispatchOne(th) {
				continue
			}
			budget--
			if th.fqCount > 0 {
				cand[w] = cand[k]
				w++
			}
		}
		nc = w
	}
}

// rotation lists the threads of a thread bitmask in round-robin order
// from p.rr, and returns how many there are.
func (p *Processor) rotation(cand *[MaxHWContexts]uint8, mask uint32) int {
	n := uint(len(p.threads))
	rr := uint(p.rr)
	m := uint64(mask)
	m = (m>>rr | m<<(n-rr)) & (1<<n - 1) // bit k: thread rr+k (mod n)
	nc := 0
	for ; m != 0; m &= m - 1 {
		t := rr + uint(bits.TrailingZeros64(m))
		if t >= n {
			t -= n
		}
		cand[nc] = uint8(t)
		nc++
	}
	return nc
}

// opDesc is the pipeline's compact description of an opcode, resolved
// once from the isa opcode table: fetch and dispatch read this small
// table instead.
type opDesc struct {
	unit   isa.Unit
	class  isa.Class
	qid    uint8 // the issue queue it dispatches into
	lat    uint8
	ii     uint8
	mem    bool // load or store
	store  bool
	vector bool // an MMX or MOM instruction
	stream bool
	branch bool
	cond   bool
}

var opDescs = func() (t [isa.NumOpcodes]opDesc) {
	for op := range t {
		o := isa.Opcode(op)
		inf := o.Info()
		d := opDesc{
			unit: inf.Unit, class: inf.Class, lat: inf.Lat, ii: inf.II,
			mem: inf.Mem != isa.MemNone, store: inf.Mem == isa.MemStore,
			vector: o.IsMMX() || o.IsMOM(),
			stream: inf.Stream, branch: inf.Branch, cond: inf.Cond,
		}
		switch {
		case d.mem:
			d.qid = qidMem
		case inf.Unit == isa.UnitMedia:
			d.qid = qidSIMD
		case inf.Class == isa.ClassFP:
			d.qid = qidFP
		default:
			d.qid = qidInt
		}
		t[op] = d
	}
	return t
}()

// equiv is an instruction's stream-expanded count: its stream length
// for a MOM stream operation, else 1 (trace.Inst.Equiv without the
// opcode table lookup).
func (d *opDesc) equiv(in *trace.Inst) uint8 {
	if d.stream && in.SLen > 1 {
		return in.SLen
	}
	return 1
}

// queueFull reports whether the issue queue an instruction dispatches
// into has no room.
func (p *Processor) queueFull(op isa.Opcode) bool {
	return p.queues[opDescs[op].qid].full()
}

// dispatchOne renames the thread's oldest fetched instruction into the
// graduation window's tail slot. It reports false on a structural stall
// (window, queue or rename pool), leaving all state untouched.
func (p *Processor) dispatchOne(th *threadState) bool {
	if th.robCount == p.robSize {
		p.st.ROBStalls++
		return false
	}
	head := th.fqBase + th.fqHead
	in := &p.fq[head]
	d := &opDescs[in.Op]
	q := &p.queues[d.qid]
	if q.full() {
		p.st.QueueStalls++
		return false
	}

	// Rename sources against the current map, before the destination
	// remaps (an instruction may read the register it writes).
	rmap := p.rmap[int(th.id)*rmapSize:]
	srcs := [3]isa.Reg{in.Src1, in.Src2, in.Src3}
	var srcPhys [3]int16
	for i := range srcs {
		if r := srcs[i]; r != isa.RegNone {
			srcPhys[i] = rmap[regSlot(r)]
		}
	}

	// Allocate the destination.
	dstPhys, oldDst := int16(-1), int16(-1)
	if dst := in.Dst; dst != isa.RegNone {
		phys, ok := p.rf.alloc(dst.File())
		if !ok {
			p.st.RenameStalls++
			return false
		}
		dstPhys = phys
		oldDst = rmap[regSlot(dst)]
		rmap[regSlot(dst)] = phys
	}

	// Scoreboard registration: park the uop on each outstanding source;
	// wakeReg marks it ready when the last producer completes. A ready
	// bit can only flip true→false through alloc, and a register is
	// never reallocated while a consumer still waits on it (in-order
	// retire frees the previous mapping only after all its readers have
	// retired), so readiness memoized here stays valid.
	idx := p.robIdx(th, th.robCount)
	rf := p.rf
	var waitCount uint8
	for i := range srcs {
		if s := srcPhys[i]; srcs[i] != isa.RegNone && !rf.ready[s] {
			p.waitNext[idx][i] = rf.waitHead[s]
			rf.waitHead[s] = idx<<2 | int32(i)
			waitCount++
		}
	}

	eq := d.equiv(in)
	lat, busy := d.lat, d.ii
	if d.unit == isa.UnitMedia {
		// A stream occupies the media unit for ceil(SLen/pipes) cycles
		// and delivers its last sub-operation after that occupancy.
		occ := uint8(1)
		if eq > 1 {
			pipes := p.cfg.MediaPipes
			occ = uint8((int(eq) + pipes - 1) / pipes)
		}
		lat += occ - 1
		busy = occ
	}

	// Fill the slot field by field: a composite literal would be built
	// on the stack and block-copied, and the copy's wide loads of the
	// narrow stores just made stall store forwarding.
	u := &p.uops[idx]
	*u = uop{}
	u.addr = in.Addr
	u.stride = in.Stride
	u.dstPhys = dstPhys
	u.oldDst = oldDst
	u.thread = th.id
	u.unit = d.unit
	u.class = d.class
	u.qid = d.qid
	u.lat = lat
	u.busy = busy
	u.equiv = eq
	u.waitCount = waitCount
	u.mispred = p.fqMispred[head]
	if d.mem {
		u.isStore = d.store
		u.isVector = d.vector
	}
	q.push(p, idx, u)

	if th.fqHead++; th.fqHead == p.fqSize {
		th.fqHead = 0
	}
	if th.fqCount--; th.fqCount == 0 {
		p.fqBusy &^= 1 << th.id
	}
	th.robCount++
	if u.isStore {
		th.pendingStores = append(th.pendingStores, idx)
	}
	return true
}
