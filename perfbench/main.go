// Command perfbench is the repository benchmark. One invocation runs
// one named workload for a fixed time, checks that the outputs are
// correct, prints a digest of the simulated results and, as the last
// line of standard output, one JSON object with every metric by name
// and unit. README.md describes the workloads and the metrics.
//
// Usage (normally through run.py, which builds this binary and expsd):
//
//	perfbench -workload core-bound|mem-bound|campaign -seed N -seconds S -trace 0|1
//	          [-scale F] [-expsd PATH] [-workdir DIR] [-spec BENCHMARK.json]
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. BENCHMARK.json names
// both lists, with their units. A layer a workload does not drive
// reports 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// undrivenPrefix starts the stderr line that names the per-layer
// metrics a workload does not drive; the self-test reads it.
const undrivenPrefix = "perfbench: not driven by "

// spec is the part of BENCHMARK.json the benchmark reads: the names and
// units of the metrics it reports, and the workloads the self-test runs.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64 // the simulator seed derived from -seed
	seconds  float64
	trace    bool
	scale    float64
	expsd    string
	workdir  string
	spec     string
}

// tally counts checked operations: every simulation, job and
// correctness check is attempted once and may fail.
type tally struct{ attempted, failed int }

// check records one operation and reports the failure on stderr.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// outcome is what a workload run hands back to main.
type outcome struct {
	metrics map[string]float64
	digest  string
}

func main() {
	var o options
	var seed uint64
	var trace int
	var probe, probeR bool
	flag.StringVar(&o.workload, "workload", "", "workload: core-bound, mem-bound or campaign")
	flag.Uint64Var(&seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Float64Var(&o.scale, "scale", 1.0, "workload scale (1.0 for measurement; the self-test uses less)")
	flag.StringVar(&o.expsd, "expsd", "", "expsd binary (campaign)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "working directory for daemon caches")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "BENCHMARK.json, which names the metrics to report")
	flag.BoolVar(&probe, "probe-setup", false, "internal: build the workload's simulations, print ready, exit")
	flag.BoolVar(&probeR, "probe-ref", false, "internal: time the host-speed reference work, print the times, exit")
	flag.Parse()
	if probeR {
		probeRef()
		return
	}

	// 0 is the simulator's "use the default seed" value and the job API
	// rejects it, so every benchmark seed maps to a distinct non-zero one.
	o.seed = seed + 1
	o.trace = trace == 1
	if flag.NArg() != 0 || (trace != 0 && trace != 1) || o.seconds <= 0 || o.scale <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments; want -workload W -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}

	var (
		out outcome
		t   tally
		sp  spec
		err error
	)
	if !probe {
		if sp, err = readSpec(o.spec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	switch o.workload {
	case "core-bound", "mem-bound":
		cfgs := simConfigs(o.workload, o.seed, o.scale)
		switch {
		case probe:
			err = probeSetup(cfgs)
			if err == nil {
				fmt.Println("ready")
				return
			}
		case o.trace:
			out, err = runSimTraced(cfgs, o, &t)
		default:
			out, err = runSimPasses(cfgs, o, &t)
		}
	case "campaign":
		out, err = runCampaign(o, &t)
	default:
		err = fmt.Errorf("unknown workload %q (want core-bound, mem-bound or campaign)", o.workload)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}

	// Every workload measures every end-to-end metric. A per-layer metric
	// of a layer the workload does not drive reads 0.
	specs := sp.EndToEnd
	if o.trace {
		specs = sp.PerLayer
	}
	r := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	var undriven []string
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok {
			undriven = append(undriven, s.Name)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(undriven) > 0 {
		if !o.trace {
			fmt.Fprintf(os.Stderr, "perfbench: %s does not measure %s\n", o.workload, strings.Join(undriven, ", "))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%s%s: %s\n", undrivenPrefix, o.workload, strings.Join(undriven, " "))
	}
	for _, name := range sortedKeys(out.metrics) {
		if _, ok := r.Metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s = %g\n", o.workload, name, out.metrics[name])
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode report: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("digest %s seed=%d: %s\n", o.workload, seed, out.digest)
	fmt.Println(string(line))
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
