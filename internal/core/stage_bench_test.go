package core

import (
	"testing"
	"time"

	"mediasmt/internal/mem"
)

// Per-stage microbenchmarks. BenchmarkSimulatorThroughput (repo root)
// measures the whole executed-cycle path; these isolate one pipeline
// stage each so a profile-guided change to, say, issue shows up in its
// own number instead of being averaged into everything else. Each timed
// call runs against a window prepared by the real surrounding stages,
// so the measured work is the stage's steady-state behaviour, not a
// synthetic state no simulation reaches.
//
// Preparing a window costs far more than one stage call, so the
// window-based benchmarks run through stageBench: the benchmark timer
// runs throughout, which keeps b.N (and the run time) bounded by the
// total work, and the ns/op they report is the stage's own time, read
// around each batch of calls one window supports.

func benchCPU(b *testing.B, threads int) *Processor {
	b.Helper()
	msys := mem.NewIdeal(mem.DefaultConfig(mem.ModeIdeal))
	p, err := New(ConfigForThreads(ISAMMX, threads), msys)
	if err != nil {
		b.Fatal(err)
	}
	// Rounds far beyond any b.N: the program must never run dry.
	for t := 0; t < threads; t++ {
		p.SetProgram(t, aluProgram(1<<40), 1)
	}
	return p
}

// stageBench runs b.N calls of a stage. prepare readies a window and
// returns how many full-width calls it supports; stage makes one call
// (k counts the calls made on the window so far).
func stageBench(b *testing.B, prepare func(p *Processor) int, stage func(p *Processor, k int)) {
	p := benchCPU(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	var stageTime time.Duration
	for i := 0; i < b.N; {
		calls := prepare(p)
		if calls < 1 {
			b.Fatal("prepared window supports no stage call")
		}
		calls = min(calls, b.N-i)
		t0 := time.Now()
		for k := range calls {
			stage(p, k)
		}
		stageTime += time.Since(t0)
		i += calls
	}
	b.ReportMetric(float64(stageTime.Nanoseconds())/float64(b.N), "ns/op")
}

func robTotal(p *Processor) int {
	n := 0
	for i := range p.threads {
		n += int(p.threads[i].robCount)
	}
	return n
}

// fillFetchQueues runs the fetch stage until every context's fetch
// queue is full or its fetch is blocked on an unresolved mispredict
// (resolved by the next drainWindow). A cycle with no fetch progress
// advances time past redirect stalls.
func fillFetchQueues(p *Processor) {
	for {
		satisfied := true
		for i := range p.threads {
			th := &p.threads[i]
			if th.fqCount < p.fqCap && !th.fetchBlocked {
				satisfied = false
				break
			}
		}
		if satisfied {
			return
		}
		before := p.st.Fetched
		p.fetch(p.now)
		if p.st.Fetched == before {
			p.now++
		}
	}
}

// fillIssueQueues dispatches from full fetch queues until dispatch
// makes no more progress (window or queue structural stall), leaving
// the issue queues populated with renamed, mostly-ready uops.
func fillIssueQueues(p *Processor) {
	for {
		before := robTotal(p)
		fillFetchQueues(p)
		p.dispatch(p.now)
		if robTotal(p) == before {
			return
		}
	}
}

// drainWindow retires everything in flight using only the back-end
// stages, leaving fetch queues untouched and the window empty.
func drainWindow(p *Processor) {
	for robTotal(p) > 0 {
		now := p.now
		p.drainMemory(now)
		p.writeback(now)
		p.commit(now)
		p.sendLoadElements(now)
		p.issue(now)
		p.memsys.Tick(now)
		p.now++
	}
}

// completeWindow executes everything in the window (issue + writeback
// cycles) without retiring it, so every ROB head is commit-ready.
func completeWindow(p *Processor) {
	for {
		allDone := true
		for i := range p.threads {
			th := &p.threads[i]
			for j := int32(0); j < th.robCount; j++ {
				if !p.uops[p.robIdx(th, j)].completed {
					allDone = false
					break
				}
			}
			if !allDone {
				break
			}
		}
		if allDone {
			return
		}
		now := p.now
		p.writeback(now)
		p.issue(now)
		p.now++
	}
}

func BenchmarkStageFetch(b *testing.B) {
	p := benchCPU(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.fetch(p.now)
		// Reset the fetch queues in place (a few writes per thread) so
		// the next iteration fetches full groups again; leaving the
		// reset timed keeps the loop free of timer toggles.
		for j := range p.threads {
			th := &p.threads[j]
			th.fqHead, th.fqCount = 0, 0
			th.frontCount, th.opCount = 0, 0
			th.fetchBlocked = false
		}
		p.fqBusy = 0
	}
}

// BenchmarkStageDispatchRename times full-width dispatch calls from
// full fetch queues into an empty window, as many as the integer queue
// (the benchmark program is all integer ALU ops) has room for.
func BenchmarkStageDispatchRename(b *testing.B) {
	stageBench(b, func(p *Processor) int {
		drainWindow(p)
		fillFetchQueues(p)
		fetched := 0
		for i := range p.threads {
			fetched += int(p.threads[i].fqCount)
		}
		room := p.queues[qidInt].cap - p.queues[qidInt].count
		return min(fetched, room) / p.cfg.DecodeWidth
	}, func(p *Processor, _ int) {
		p.dispatch(p.now)
	})
}

// BenchmarkStageIssue times full-width issue calls from full queues of
// ready operations.
func BenchmarkStageIssue(b *testing.B) {
	stageBench(b, func(p *Processor) int {
		drainWindow(p)
		fillIssueQueues(p)
		return p.queues[qidInt].nready / p.cfg.IssueInt
	}, func(p *Processor, _ int) {
		p.issue(p.now)
	})
}

// BenchmarkStageWriteback times writeback calls that each complete one
// cycle's issue group: the window issues on consecutive cycles, and
// each call writes back the next cycle.
func BenchmarkStageWriteback(b *testing.B) {
	const cycles = 4
	var first int64
	stageBench(b, func(p *Processor) int {
		drainWindow(p)
		fillIssueQueues(p)
		first = p.now
		for range cycles {
			p.issue(p.now)
			p.now++
		}
		return cycles
	}, func(p *Processor, k int) {
		// The benchmark program's ops have latency 1.
		p.writeback(first + 1 + int64(k))
	})
}

// BenchmarkStageCommit times full-width commit calls over a completed
// window.
func BenchmarkStageCommit(b *testing.B) {
	stageBench(b, func(p *Processor) int {
		drainWindow(p)
		fillIssueQueues(p)
		completeWindow(p)
		return robTotal(p) / p.cfg.CommitWidth
	}, func(p *Processor, _ int) {
		p.commit(p.now)
	})
}

// BenchmarkStageCycle is the whole-pipeline reference point: one
// executed cycle of a busy 4-thread core, the unit the per-stage
// numbers above decompose.
func BenchmarkStageCycle(b *testing.B) {
	p := benchCPU(b, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Cycle()
	}
}
