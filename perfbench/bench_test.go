package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSelf builds the benchmark and expsd, runs every workload at a tiny
// scale in both modes, and checks that each run passes its own checks,
// that every workload measures every end-to-end metric and that some
// workload drives every per-layer metric BENCHMARK.json names.
func TestSelf(t *testing.T) {
	const specPath = "../BENCHMARK.json"
	sp, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bench, expsd := filepath.Join(dir, "perfbench"), filepath.Join(dir, "expsd")
	for _, args := range [][]string{{"build", "-o", bench, "."}, {"build", "-o", expsd, "mediasmt/cmd/expsd"}} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}

	// undriven counts, per per-layer metric, the workloads that do not
	// drive it.
	undriven := map[string]int{}
	for _, w := range sp.Workloads {
		for trace := range 2 {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				cmd := exec.Command(bench, "-workload", w.Name, "-seed", "3", "-seconds", "1", "-trace", strconv.Itoa(trace),
					"-scale", "0.02", "-expsd", expsd, "-workdir", t.TempDir(), "-spec", specPath)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("run: %v\n%s", err, stderr.Bytes())
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				if len(lines) < 2 || !strings.HasPrefix(lines[len(lines)-2], "digest "+w.Name+" ") {
					t.Errorf("no digest line before the result: %q", out)
				}
				var r report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("correct %v, %d of %d failed", r.Correct, r.Failed, r.Attempted)
				}
				specs := sp.EndToEnd
				if trace == 1 {
					specs = sp.PerLayer
				}
				if len(r.Metrics) != len(specs) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(r.Metrics), len(specs))
				}
				for _, line := range strings.Split(stderr.String(), "\n") {
					if rest, ok := strings.CutPrefix(line, undrivenPrefix+w.Name+": "); ok {
						for _, name := range strings.Fields(rest) {
							undriven[name]++
						}
					}
				}
			})
		}
	}
	for _, m := range sp.PerLayer {
		if undriven[m.Name] == len(sp.Workloads) {
			t.Errorf("no workload drives %s", m.Name)
		}
	}
}
