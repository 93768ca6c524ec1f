package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// The machines this benchmark runs on are often virtual and shared. The
// hypervisor then takes the CPUs away for a share of the time that
// drifts from nothing to a third as neighbours load the host ("steal"
// time), and the same simulation takes 0.7 s in one minute and 1.3 s in
// the next. A slow spell can cover a whole run, so medians inside a run
// do not remove it. Linux counts stolen time per CPU, so every
// timed span is corrected for it: a span's wall time is scaled by the
// share of the CPUs' runnable time that was not stolen during it. On
// an unshared machine the correction is 1.
//
// The host's speed also drifts with no steal at all, by half between
// one minute and the next: the same pass takes 2.2 s, then 3.4 s. So a
// sim workload run also times a fixed piece of standard-library work
// again and again, interleaved with its passes, and divides its
// corrected times by how much slower than nominal that work ran. Raw
// times are printed on stderr.

// cpuTicks holds the aggregate counters of /proc/stat's "cpu" line, in
// clock ticks summed over the CPUs.
type cpuTicks struct{ busy, steal float64 }

func readCPUTicks() (cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var v [8]float64
	for i := range v {
		if v[i], err = strconv.ParseFloat(f[i+1], 64); err != nil {
			return cpuTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7]}, nil
}

// stolen returns the share of the CPUs' runnable time in d, a
// difference of two readings, that was stolen.
func (d cpuTicks) stolen() float64 {
	if d.busy+d.steal > 0 {
		return d.steal / (d.busy + d.steal)
	}
	return 0
}

// span is a timed interval with the CPU counters at its start.
type span struct {
	t0    time.Time
	ticks cpuTicks
}

func startSpan() (span, error) {
	c, err := readCPUTicks()
	return span{t0: time.Now(), ticks: c}, err
}

// end returns the span's raw wall time in seconds and how far the CPU
// counters advanced during it.
func (s span) end() (raw float64, d cpuTicks, err error) {
	raw = time.Since(s.t0).Seconds()
	c, err := readCPUTicks()
	return raw, cpuTicks{busy: c.busy - s.ticks.busy, steal: c.steal - s.ticks.steal}, err
}

// timeSpan runs f and returns its raw wall time in seconds and the
// stolen share; raw × (1 − stolen) is the corrected time.
func timeSpan(f func()) (raw, stolen float64, err error) {
	s, err := startSpan()
	if err != nil {
		return 0, 0, err
	}
	f()
	raw, d, err := s.end()
	return raw, d.stolen(), err
}

// setups collects a run's set-up times. The host's speed drifts over a
// run, so set-ups are spread over it rather than made all at the start.
// A set-up lasts milliseconds, less than one tick of the stolen-time
// counters, so the counters are summed over every set-up of the run and
// their stolen share corrects the median.
type setups struct {
	raw   []float64
	ticks cpuTicks
}

// time runs f, one set-up, and records its wall time.
func (s *setups) time(f func() error) error {
	sp, err := startSpan()
	if err != nil {
		return err
	}
	if err := f(); err != nil {
		return err
	}
	raw, d, err := sp.end()
	s.raw = append(s.raw, raw)
	s.ticks.busy += d.busy
	s.ticks.steal += d.steal
	return err
}

// median returns the median set-up time in seconds, corrected for
// stolen CPU time.
func (s *setups) median() float64 { return median(s.raw) * (1 - s.ticks.stolen()) }

// refNominal is the reference work's time, in seconds, on an idle
// 2.1 GHz Xeon core; a run's host factor is its own time over this.
const refNominal = 0.010

// refPerRound is how many times a run times the reference work before
// its first round of timed work and after every round.
const refPerRound = 8

// hostRef collects a run's reference times. The reference work is
// sorting 2^17 pseudo-random ints and hashing 1 MiB. It is
// standard-library code only, so no change to the repository moves its
// time, and that time follows the host's speed.
type hostRef struct{ secs []float64 }

// sample times the reference work refPerRound times in a fresh child
// process (-probe-ref), so that its memory shows in neither the
// benchmark's heap nor its peak RSS.
func (h *hostRef) sample() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := exec.Command(self, "-probe-ref").Output()
	if err != nil {
		return fmt.Errorf("reference probe: %w", err)
	}
	f := strings.Fields(string(out))
	if len(f) != refPerRound {
		return fmt.Errorf("reference probe: printed %q", out)
	}
	for _, v := range f {
		secs, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("reference probe: %w", err)
		}
		h.secs = append(h.secs, secs)
	}
	return nil
}

// probeRef is the child side of hostRef.sample: it times the reference
// work refPerRound times and prints the times in seconds.
func probeRef() {
	r := rand.New(rand.NewPCG(1, 2))
	ints, work := make([]int, 1<<17), make([]int, 1<<17)
	for i := range ints {
		ints[i] = r.Int()
	}
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(r.Uint32())
	}
	for range refPerRound {
		t0 := time.Now()
		copy(work, ints)
		slices.Sort(work)
		sha256.Sum256(buf)
		fmt.Println(time.Since(t0).Seconds())
	}
}

// factor returns how much slower than nominal the host ran over the
// run: the 10th percentile of the reference times over refNominal. The
// low percentile leaves out the samples that lost the CPU to the
// hypervisor, whose time is corrected separately, and a fresh child's
// first, cold sample.
func (h *hostRef) factor() float64 { return quantile(h.secs, 0.1) / refNominal }
