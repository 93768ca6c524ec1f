package main

import (
	"fmt"
	"time"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
	"mediasmt/internal/trace"
	"mediasmt/internal/workload"
)

// machine is one simulation driven by the benchmark's own per-cycle
// loop over the public workload/core/mem API. It follows sim.Run's
// §5.1 protocol (program order, per-instance seed and address base,
// wrap-around relaunch) so that its Result equals sim.Run's field for
// field; the benchmark checks that on every run. It uses no part of the
// event engine: the loop calls Cycle on every cycle.
type machine struct {
	cfg       sim.Config
	benches   []*workload.Benchmark
	variant   workload.Variant
	proc      *core.Processor
	mem       mem.System
	tr        *tracer // nil: untraced
	started   int
	completed int
	primaryOn []int
}

// newMachine builds the processor and memory system and starts the
// first program on every context: everything before the first cycle.
func newMachine(cfg sim.Config, tr *tracer) (*machine, error) {
	cfg = cfg.Normalize()
	m := &machine{cfg: cfg, tr: tr, variant: workload.MMX, primaryOn: make([]int, cfg.Threads)}
	if cfg.ISA == core.ISAMOM {
		m.variant = workload.MOM
	}
	for _, name := range workload.RunOrder {
		b, err := workload.Get(name)
		if err != nil {
			return nil, err
		}
		m.benches = append(m.benches, b)
	}
	ccfg := core.ConfigForThreads(cfg.ISA, cfg.Threads)
	ccfg.Policy = cfg.Policy
	m.mem = mem.New(mem.DefaultConfig(cfg.Memory))
	var coreMem mem.System = m.mem
	if tr != nil {
		coreMem = &timedMem{System: m.mem, tr: tr}
	}
	p, err := core.New(ccfg, coreMem)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m.proc = p
	for t := 0; t < cfg.Threads; t++ {
		m.launch(t)
	}
	return m, nil
}

func (m *machine) launch(ctx int) {
	b := m.benches[m.started%len(m.benches)]
	base := uint64(m.started+1) << 33
	seed := m.cfg.Seed + uint64(m.started)*7919
	var prog trace.Program
	if m.tr == nil {
		prog = b.Program(m.variant, seed, base, m.cfg.Scale)
	} else {
		t0 := time.Now()
		prog = &timedProgram{Program: b.Program(m.variant, seed, base, m.cfg.Scale), tr: m.tr}
		m.tr.buildNs += time.Since(t0).Nanoseconds()
	}
	m.proc.SetProgram(ctx, prog, b.EIPCFactor(m.variant))
	if m.started < len(m.benches) {
		m.primaryOn[ctx] = m.started
	} else {
		m.primaryOn[ctx] = -1
	}
	m.started++
}

// run cycles the processor until the eighth primary program finishes
// or the cycle cap is hit.
func (m *machine) run() (*sim.Result, error) {
	p, primaries := m.proc, len(m.benches)
	for p.Now() < m.cfg.MaxCycles && m.completed < primaries {
		if m.tr != nil && m.tr.sampleNext() {
			t0 := time.Now()
			p.Cycle()
			m.tr.cycleNs += time.Since(t0).Nanoseconds()
			m.tr.sampled = false // relaunches below lie outside the cycle
		} else {
			p.Cycle()
		}
		for t := 0; t < m.cfg.Threads; t++ {
			if !p.ContextDrained(t) {
				continue
			}
			if m.primaryOn[t] >= 0 {
				m.completed++
				m.primaryOn[t] = -1
			}
			if m.completed < primaries {
				m.launch(t)
			}
		}
	}
	if m.tr != nil {
		m.tr.cycles += p.Stats().Cycles
	}
	st := *p.Stats()
	res := &sim.Result{
		Cfg:       m.cfg,
		Cycles:    st.Cycles,
		IPC:       st.IPC(),
		EquivIPC:  st.EquivIPC(),
		EIPC:      st.EIPC(),
		Core:      st,
		Mem:       *m.mem.Stats(),
		Completed: m.completed,
		Started:   m.started,
	}
	if m.completed < primaries {
		return res, fmt.Errorf("hit MaxCycles=%d with %d/%d programs complete", m.cfg.MaxCycles, m.completed, primaries)
	}
	return res, nil
}

// drive runs one simulation on the per-cycle loop; tr may be nil.
func drive(cfg sim.Config, tr *tracer) (*sim.Result, error) {
	m, err := newMachine(cfg, tr)
	if err != nil {
		return nil, err
	}
	return m.run()
}

// tracer times the layers below core.Processor.Cycle from outside.
// Reading the clock around every call would dominate the run, so it
// times a fixed 1-in-sampleEvery sample of cycles, chosen by a
// deterministic pseudo-random sequence so that no periodic pipeline
// pattern aliases with it. In a sampled cycle it times the Cycle call
// and every nested memory and trace call, and removes the calibrated
// clock cost from each interval (see layerNs). Call and acceptance
// counts cover every cycle.
type tracer struct {
	// emptyNs is the mean reading of an empty timed interval; wrapNs is
	// what one timed call adds to an enclosing interval besides the
	// call itself.
	emptyNs, wrapNs float64
	rng             uint64
	sampled         bool

	cycles, sampledCycles  int64
	cycleNs, memNs, nextNs int64 // summed over sampled cycles
	memCalls, nextCalls    int64 // timed calls in sampled cycles
	accesses, accepted     int64 // every Access call
	buildNs                int64 // workload program construction
}

const sampleEvery = 16

func newTracer() *tracer {
	t := &tracer{rng: 0x9e3779b97f4a7c15}
	t.emptyNs, t.wrapNs = calibrateClock()
	return t
}

// sampleNext decides whether the coming cycle is timed.
func (t *tracer) sampleNext() bool {
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	t.sampled = t.rng%sampleEvery == 0
	if t.sampled {
		t.sampledCycles++
	}
	return t.sampled
}

// layerNs estimates the total host nanoseconds spent in the processor
// itself (excluding nested calls), in the memory system and in the
// trace generator, scaled from the sampled cycles to all cycles. A
// timed call reads emptyNs more than it took; an enclosing interval
// reads emptyNs plus wrapNs per timed call more than its contents.
func (t *tracer) layerNs() (coreNs, memNs, nextNs float64) {
	if t.sampledCycles == 0 {
		return 0, 0, 0
	}
	scale := float64(t.cycles) / float64(t.sampledCycles)
	memNs = float64(t.memNs) - float64(t.memCalls)*t.emptyNs
	nextNs = float64(t.nextNs) - float64(t.nextCalls)*t.emptyNs
	calls := float64(t.memCalls + t.nextCalls)
	coreNs = float64(t.cycleNs) - float64(t.sampledCycles)*t.emptyNs - calls*t.wrapNs - memNs - nextNs
	return coreNs * scale, memNs * scale, nextNs * scale
}

// calibrateClock measures, the way the wrappers time a call, the mean
// reading of an empty interval and the cost one timed call adds to the
// interval around it.
func calibrateClock() (emptyNs, wrapNs float64) {
	const n = 200000
	var sum int64
	t0 := time.Now()
	for range n {
		t1 := time.Now()
		sum += time.Since(t1).Nanoseconds()
	}
	wrapNs = float64(time.Since(t0).Nanoseconds()) / n
	return float64(sum) / n, wrapNs
}

// timedMem wraps the memory system the processor sees. Methods it does
// not override pass straight through the embedded interface.
type timedMem struct {
	mem.System
	tr *tracer
}

func (m *timedMem) Access(now int64, r mem.Request) bool {
	var ok bool
	if m.tr.sampled {
		t0 := time.Now()
		ok = m.System.Access(now, r)
		m.tr.memNs += time.Since(t0).Nanoseconds()
		m.tr.memCalls++
	} else {
		ok = m.System.Access(now, r)
	}
	m.tr.accesses++
	if ok {
		m.tr.accepted++
	}
	return ok
}

// Drain's time includes the processor's completion callback.
func (m *timedMem) Drain(now int64, fn func(mem.Completion)) {
	if !m.tr.sampled {
		m.System.Drain(now, fn)
		return
	}
	t0 := time.Now()
	m.System.Drain(now, fn)
	m.tr.memNs += time.Since(t0).Nanoseconds()
	m.tr.memCalls++
}

func (m *timedMem) FetchLine(now int64, thread int, pc uint64) mem.FetchResult {
	if !m.tr.sampled {
		return m.System.FetchLine(now, thread, pc)
	}
	t0 := time.Now()
	r := m.System.FetchLine(now, thread, pc)
	m.tr.memNs += time.Since(t0).Nanoseconds()
	m.tr.memCalls++
	return r
}

func (m *timedMem) Tick(now int64) {
	if !m.tr.sampled {
		m.System.Tick(now)
		return
	}
	t0 := time.Now()
	m.System.Tick(now)
	m.tr.memNs += time.Since(t0).Nanoseconds()
	m.tr.memCalls++
}

// timedProgram wraps one program's instruction stream.
type timedProgram struct {
	trace.Program
	tr *tracer
}

func (p *timedProgram) Next(in *trace.Inst) bool {
	if !p.tr.sampled {
		return p.Program.Next(in)
	}
	t0 := time.Now()
	ok := p.Program.Next(in)
	p.tr.nextNs += time.Since(t0).Nanoseconds()
	p.tr.nextCalls++
	return ok
}
