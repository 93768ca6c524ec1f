package core

import (
	"testing"
	"unsafe"

	"mediasmt/internal/mem"
	"mediasmt/internal/workload"
)

// TestUopFitsCacheLine pins the in-flight instruction's size: issue,
// writeback and commit walk uops by index, so a uop must stay within a
// 64-byte cache line. Today it is half of one.
func TestUopFitsCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n > 32 {
		t.Errorf("sizeof(uop) = %d bytes, want at most 32 (two per 64-byte cache line)", n)
	}
}

// TestCycleAllocatesNothing: once warmed up, an executed cycle must not
// allocate, on the pipeline-bound 8-thread configurations and on a
// single-thread run over the decoupled hierarchy.
func TestCycleAllocatesNothing(t *testing.T) {
	for _, tc := range []struct {
		name    string
		isa     ISAKind
		threads int
		policy  Policy
		mode    mem.Mode
	}{
		{"mmx-8T-ICOUNT-ideal", ISAMMX, 8, PolicyICOUNT, mem.ModeIdeal},
		{"mom-8T-OCOUNT-ideal", ISAMOM, 8, PolicyOCOUNT, mem.ModeIdeal},
		{"mom-1T-decoupled", ISAMOM, 1, PolicyRR, mem.ModeDecoupled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ConfigForThreads(tc.isa, tc.threads)
			cfg.Policy = tc.policy
			p, err := New(cfg, mem.New(mem.DefaultConfig(tc.mode)))
			if err != nil {
				t.Fatal(err)
			}
			v := workload.MMX
			if tc.isa == ISAMOM {
				v = workload.MOM
			}
			for ctx := 0; ctx < tc.threads; ctx++ {
				b, err := workload.Get(workload.RunOrder[ctx%len(workload.RunOrder)])
				if err != nil {
					t.Fatal(err)
				}
				p.SetProgram(ctx, b.Program(v, uint64(7+ctx), uint64(ctx+1)<<33, 1), 1)
			}
			const warmup, measured = 30000, 5000
			for range warmup {
				p.Cycle()
			}
			allocs := testing.AllocsPerRun(1, func() {
				for range measured {
					p.Cycle()
				}
			})
			for ctx := 0; ctx < tc.threads; ctx++ {
				if p.ContextDrained(ctx) {
					t.Fatalf("context %d ran out of program before the measured cycles ended", ctx)
				}
			}
			if allocs != 0 {
				t.Errorf("%v allocations in %d warm cycles, want 0", allocs, measured)
			}
		})
	}
}
