package sim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

// The result-digest pin: one sha256 of EncodeResult per config over
// {mmx,mom} × {1,4,8} threads × {ideal,conventional,decoupled} memory
// at scale 0.02, seed 7. The engine equivalence matrix compares the
// event engine against the tick loop, and both run on the same core,
// so a core change that alters results passes it; this test does not.
// The fetch policy rotates RR, ICOUNT, OCOUNT, BALANCE over the
// configs in order, so every policy runs on both ISAs with more than
// one thread.
//
// The digests may be regenerated only together with a sim.Version
// bump: -update-digests refuses to rewrite the file while its recorded
// version equals Version.
//
//	go test ./internal/sim -run TestResultDigests -update-digests

const digestFile = "testdata/result_digests.txt"

var updateDigests = flag.Bool("update-digests", false, "rewrite "+digestFile+" (only after a sim.Version bump)")

func digestConfigs() []Config {
	policies := []core.Policy{core.PolicyRR, core.PolicyICOUNT, core.PolicyOCOUNT, core.PolicyBALANCE}
	var cfgs []Config
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 4, 8} {
			for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
				cfgs = append(cfgs, Config{
					ISA: isa, Threads: threads, Memory: mode,
					Policy: policies[len(cfgs)%len(policies)],
					Scale:  0.02, Seed: 7,
				})
			}
		}
	}
	return cfgs
}

// readDigests parses the digest file: a "version <v>" line, then one
// "<sha256> <config key>" line per config.
func readDigests(path string) (version string, digests map[string]string, err error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	digests = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "version "); ok {
			version = v
			continue
		}
		sum, key, ok := strings.Cut(line, " ")
		if !ok {
			return "", nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		digests[key] = sum
	}
	return version, digests, sc.Err()
}

func TestResultDigests(t *testing.T) {
	got := map[string]string{}
	var order []string
	for _, cfg := range digestConfigs() {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Key(), err)
		}
		data, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[cfg.Key()] = hex.EncodeToString(sum[:])
		order = append(order, cfg.Key())
	}

	version, want, err := readDigests(digestFile)
	if *updateDigests {
		if err == nil && version == Version {
			t.Fatalf("%s was recorded at %s, the current sim.Version: results may change only with a version bump", digestFile, Version)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "version %s\n", Version)
		for _, key := range order {
			fmt.Fprintf(&b, "%s %s\n", got[key], key)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if version != Version {
		t.Fatalf("%s was recorded at %s but sim.Version is %s: regenerate it with -update-digests", digestFile, version, Version)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, want %d", digestFile, len(want), len(got))
	}
	for _, key := range order {
		if want[key] != got[key] {
			t.Errorf("%s: result digest %s, recorded %s", key, got[key], want[key])
		}
	}
}
