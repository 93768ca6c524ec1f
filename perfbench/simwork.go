package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// simConfigs returns the simulations of a sim workload, in run order.
//
// core-bound: 8-thread SMT with ideal memory. Nearly every cycle issues,
// so the pipeline stages do the work; the memory model is trivial and
// the event engine has no idle cycle to skip.
//
// mem-bound: 1-2 threads on the realistic hierarchies. 30-50% of cycles
// issue nothing and many accesses are refused for structural hazards,
// so the memory model, DRAM and the engine's idle-cycle skipping do
// the work. The first config is the paper's headline baseline.
func simConfigs(workload string, seed uint64, scale float64) []sim.Config {
	c := func(isa core.ISAKind, threads int, p core.Policy, m mem.Mode) sim.Config {
		return sim.Config{ISA: isa, Threads: threads, Policy: p, Memory: m, Scale: scale, Seed: seed}
	}
	if workload == "core-bound" {
		return []sim.Config{
			c(core.ISAMMX, 8, core.PolicyICOUNT, mem.ModeIdeal),
			c(core.ISAMOM, 8, core.PolicyOCOUNT, mem.ModeIdeal),
		}
	}
	return []sim.Config{
		c(core.ISAMMX, 1, core.PolicyRR, mem.ModeConventional),
		c(core.ISAMOM, 1, core.PolicyRR, mem.ModeDecoupled),
		c(core.ISAMMX, 2, core.PolicyRR, mem.ModeDecoupled),
	}
}

// setupsPerRound is how many set-ups a run times before its first
// round of timed work and after every round; it reports the median.
const setupsPerRound = 10

// probeSetup is the child side of the set-up measurement: it builds
// every simulation of the workload up to its first cycle.
func probeSetup(cfgs []sim.Config) error {
	for _, cfg := range cfgs {
		if _, err := newMachine(cfg, nil); err != nil {
			return err
		}
	}
	return nil
}

// timeSetups times setupsPerRound fresh benchmark processes, each from
// start until it has built every simulation of the workload and
// reports ready.
func timeSetups(o options, s *setups) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for range setupsPerRound {
		cmd := exec.Command(self, "-probe-setup", "-workload", o.workload,
			"-seed", strconv.FormatUint(o.seed-1, 10), "-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		var line string
		var rerr error
		err = s.time(func() error {
			if err := cmd.Start(); err != nil {
				return err
			}
			line, rerr = bufio.NewReader(stdout).ReadString('\n')
			return nil
		})
		werr := cmd.Wait()
		if err != nil {
			return err
		}
		if rerr != nil || line != "ready\n" || werr != nil {
			return fmt.Errorf("set-up probe: read %q (%v), exit %v", line, rerr, werr)
		}
	}
	return nil
}

// digestResults hashes the encoded results, in order.
func digestResults(rs []*sim.Result) (string, error) {
	h := sha256.New()
	for _, r := range rs {
		b, err := sim.EncodeResult(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

func committed(rs []*sim.Result) int64 {
	var n int64
	for _, r := range rs {
		n += r.Core.Committed
	}
	return n
}

// minPasses is the least number of timed passes a run makes, whatever
// -seconds says, so that the median has company.
const minPasses = 3

// runSimPasses measures the end-to-end metrics of a sim workload. One
// untimed pass warms up the process (lazy workload measurement, heap
// growth) and gives the reference results; timed passes of sim.Run
// over every config, one at a time, follow until the measurement time
// is spent. Every pass must reproduce the reference exactly. Pass
// times are corrected for stolen CPU time and for the host's speed
// (see host.go).
func runSimPasses(cfgs []sim.Config, o options, t *tally) (outcome, error) {
	var setup setups
	if err := timeSetups(o, &setup); err != nil {
		return outcome{}, err
	}
	var host hostRef
	if err := host.sample(); err != nil {
		return outcome{}, err
	}
	ref := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		r, err := sim.Run(cfg)
		t.check(err == nil, "%s: warm-up sim.Run: %v", cfg.Key(), err)
		ref[i] = r
	}
	var passes, rawPasses, stolen []float64
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < o.seconds {
		got := make([]*sim.Result, len(cfgs))
		var runErrs []error
		raw, st, err := timeSpan(func() {
			for i, cfg := range cfgs {
				var rerr error
				got[i], rerr = sim.Run(cfg)
				runErrs = append(runErrs, rerr)
			}
		})
		if err != nil {
			return outcome{}, err
		}
		passes, rawPasses, stolen = append(passes, raw*(1-st)), append(rawPasses, raw), append(stolen, st)
		for i, cfg := range cfgs {
			t.check(runErrs[i] == nil, "%s: sim.Run: %v", cfg.Key(), runErrs[i])
			t.check(reflect.DeepEqual(got[i], ref[i]), "%s: repeated sim.Run differs from the first", cfg.Key())
		}
		if err := timeSetups(o, &setup); err != nil {
			return outcome{}, err
		}
		if err := host.sample(); err != nil {
			return outcome{}, err
		}
	}
	rss, err := vmHWM("self")
	if err != nil {
		return outcome{}, err
	}
	digest, err := digestResults(ref)
	if err != nil {
		return outcome{}, err
	}
	insts := float64(committed(ref))
	f := host.factor()
	return outcome{
		metrics: map[string]float64{
			"siminsts_per_s":     insts / median(passes) * f,
			"job_p50_ms":         1e3 * median(passes) / f,
			"setup_s":            setup.median() / f,
			"host_factor":        f,
			"raw.setup_s":        median(setup.raw),
			"setups":             float64(len(setup.raw)),
			"setup_stolen_share": setup.ticks.stolen(),
			"max_rss_mb":         rss,
			"passes":             float64(len(passes)),
			"raw.siminsts_per_s": insts / median(rawPasses),
			"raw.job_p50_ms":     1e3 * median(rawPasses),
			"stolen_share":       median(stolen),
		},
		digest: fmt.Sprintf("%s (%d sims, %d committed insts per pass)", digest, len(cfgs), int64(insts)),
	}, nil
}

// runSimTraced produces the per-layer metrics of a sim workload. Each
// round runs every config three ways: sim.Run (the production engine),
// the benchmark's untraced per-cycle loop and the traced one. All
// three must agree field for field. Rounds repeat until the
// measurement time is spent.
func runSimTraced(cfgs []sim.Config, o options, t *tally) (outcome, error) {
	tr := newTracer()
	var (
		// Wall times corrected for stolen CPU time, and the traced
		// runs' raw time, which the tracer's own intervals share.
		runWall, tickWall, tracedWall, tracedRaw float64
		rt                                       runtimeUse
		refs                                     []*sim.Result
		buildNs                                  int64
		rounds                                   int
	)
	timed := func(wall *float64, f func()) error {
		raw, stolen, err := timeSpan(f)
		*wall += raw * (1 - stolen)
		return err
	}
	start := time.Now()
	for rounds == 0 || time.Since(start).Seconds() < o.seconds {
		for _, cfg := range cfgs {
			var ref, plain, traced *sim.Result
			var runErr, plainErr, tracedErr error
			// runtime/metrics' CPU classes only advance when a GC cycle
			// ends, so forced GCs open and close the window around
			// sim.Run, and a third one measures the closing GC's own
			// cost, which is taken out.
			runtime.GC()
			r0 := readRuntime()
			if err := timed(&runWall, func() { ref, runErr = sim.Run(cfg) }); err != nil {
				return outcome{}, err
			}
			runtime.GC()
			r1 := readRuntime()
			runtime.GC()
			closing := readRuntime().sub(r1)
			use := r1.sub(r0)
			use.gcCPU -= closing.gcCPU
			use.busyCPU -= closing.busyCPU
			rt = rt.add(use)
			t.check(runErr == nil, "%s: sim.Run: %v", cfg.Key(), runErr)

			if err := timed(&tickWall, func() { plain, plainErr = drive(cfg, nil) }); err != nil {
				return outcome{}, err
			}
			t.check(plainErr == nil && reflect.DeepEqual(plain, ref), "%s: per-cycle loop result differs from sim.Run (%v)", cfg.Key(), plainErr)

			b0 := tr.buildNs
			t0 := time.Now()
			if err := timed(&tracedWall, func() { traced, tracedErr = drive(cfg, tr) }); err != nil {
				return outcome{}, err
			}
			tracedRaw += time.Since(t0).Seconds()
			buildNs += tr.buildNs - b0
			t.check(tracedErr == nil && reflect.DeepEqual(traced, ref), "%s: traced loop result differs from sim.Run (%v)", cfg.Key(), tracedErr)
			if rounds == 0 {
				refs = append(refs, ref)
			}
		}
		rounds++
	}

	var cs core.Stats
	var mst mem.Stats
	for _, r := range refs {
		cs.Cycles += r.Core.Cycles
		cs.Committed += r.Core.Committed
		cs.CyclesNoIssue += r.Core.CyclesNoIssue
		cs.ROBStalls += r.Core.ROBStalls
		cs.RenameStalls += r.Core.RenameStalls
		cs.QueueStalls += r.Core.QueueStalls
		mst.L1Accesses += r.Mem.L1Accesses
		mst.L1Hits += r.Mem.L1Hits
		mst.L1DelayedHits += r.Mem.L1DelayedHits
		mst.L1WBForwards += r.Mem.L1WBForwards
		mst.L1LoadLatSum += r.Mem.L1LoadLatSum
		mst.L1LoadCount += r.Mem.L1LoadCount
		mst.DRAMRowHits += r.Mem.DRAMRowHits
		mst.DRAMRowMisses += r.Mem.DRAMRowMisses
	}
	kinst := float64(cs.Committed) / 1e3
	tracedKinst := kinst * float64(rounds)
	coreNs, memNs, nextNs := tr.layerNs()
	// The tracer's intervals lose CPU time to the hypervisor like the
	// runs around them; remove the same share.
	unstolen := ratio(tracedWall, tracedRaw)
	coreNs, memNs, nextNs = coreNs*unstolen, memNs*unstolen, nextNs*unstolen
	digest, err := digestResults(refs)
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		metrics: map[string]float64{
			"core.self_ns_per_kinst":         coreNs / tracedKinst,
			"core.no_issue_share":            ratio(float64(cs.CyclesNoIssue), float64(cs.Cycles)),
			"core.dispatch_stalls_per_kinst": float64(cs.ROBStalls+cs.RenameStalls+cs.QueueStalls) / kinst,
			"mem.host_ns_per_kinst":          memNs / tracedKinst,
			"mem.access_accept_ratio":        ratio(float64(tr.accepted), float64(tr.accesses)),
			"mem.l1_hit_rate":                mst.L1HitRate(),
			"mem.avg_l1_load_lat":            mst.AvgL1LoadLat(),
			"mem.dram_row_hit_rate":          mst.DRAMRowHitRate(),
			"trace.next_ns_per_kinst":        nextNs / tracedKinst,
			"trace.overhead_ratio":           ratio(tracedWall, tickWall),
			"workload.program_build_s":       float64(buildNs) / 1e9 / float64(rounds),
			"engine.speedup_vs_tick":         ratio(tickWall, runWall),
			"runtime.alloc_bytes_per_kinst":  rt.allocBytes / (kinst * float64(rounds)),
			"runtime.gc_cpu_share":           max(0, ratio(rt.gcCPU, rt.busyCPU)),
			"runtime.gc_cpu_s":               rt.gcCPU,
			"rounds":                         float64(rounds),
			"clock_empty_ns":                 tr.emptyNs,
			"clock_wrap_ns":                  tr.wrapNs,
		},
		digest: fmt.Sprintf("%s (%d sims, %d committed insts per pass)", digest, len(cfgs), cs.Committed),
	}, nil
}
