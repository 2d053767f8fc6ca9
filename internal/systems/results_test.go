package systems

// Absolute-result pin: the SHA-256 of every registered system's full report
// (renderResult: cycles, every counter, every energy category, per-phase
// and per-function cycles and energy, the final memory image) on the paper
// benchmarks, plus fft under Large and WriteThrough, every paper benchmark
// under a seeded fault plan, and fft and susan with a paced, deeper DMA
// engine, compared against a committed golden. A refactor that shifts any
// simulated number on any system fails here and names the cell.
//
// After a deliberate result change, regenerate with
//
//	go test ./internal/systems -run TestResultsGolden -update
//
// (or `make results-golden`) and review the diff.

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"fusion/internal/faults"
	"fusion/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from the current simulator")

const resultsGolden = "testdata/results.golden"

// resultCell is one pinned run: a benchmark, a system, and a named variant
// of its DefaultConfig.
type resultCell struct {
	bench, variant string
	kind           Kind
	tune           func(*Config)
}

// resultCells is every paper benchmark on every system at DefaultConfig,
// then fft on every system under Large and WriteThrough, then every paper
// benchmark on every system under a seeded fault plan, which jitters and
// stalls every link and host route, then fft and susan on every system with
// four DMA transfers in flight and a 4-cycle controller gap. That last
// variant pins the gap-deferred DMA pump and, through susan's two uncached
// ADAPTIVE tasks, the uncached port at depth > 1; the knobs act only on
// SCRATCH and ADAPTIVE.
func resultCells() []resultCell {
	var cells []resultCell
	for _, name := range workloads.Names() {
		for _, kind := range Kinds() {
			cells = append(cells, resultCell{bench: name, variant: "default", kind: kind})
		}
	}
	fft := []string{"fft"}
	variants := []struct {
		name    string
		benches []string
		tune    func(*Config)
	}{
		{"large", fft, func(c *Config) { c.Large = true }},
		{"writethrough", fft, func(c *Config) { c.WriteThrough = true }},
		{"faultseed7", workloads.Names(), func(c *Config) { p := faults.RandomPlan(7); c.Faults = &p }},
		{"dma4gap4", []string{"fft", "susan"}, func(c *Config) { c.DMAOutstanding, c.DMAGap = 4, 4 }},
	}
	for _, v := range variants {
		for _, name := range v.benches {
			for _, kind := range Kinds() {
				cells = append(cells, resultCell{bench: name, variant: v.name, kind: kind, tune: v.tune})
			}
		}
	}
	return cells
}

func (c resultCell) label() string {
	return fmt.Sprintf("%s/%s/%s", c.bench, strings.ToLower(c.kind.String()), c.variant)
}

func TestResultsGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range resultCells() {
		cfg := DefaultConfig(c.kind)
		if c.tune != nil {
			c.tune(&cfg)
		}
		res, err := Run(workloads.Get(c.bench), cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.label(), err)
		}
		sum := sha256.Sum256([]byte(renderResult(res)))
		fmt.Fprintf(&got, "%s %s\n", c.label(), hex.EncodeToString(sum[:]))
	}

	if *update {
		if err := os.WriteFile(resultsGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want, have := strings.Split(string(wantBytes), "\n"), strings.Split(got.String(), "\n")
	if len(want) != len(have) {
		t.Fatalf("%s has %d lines, the run produced %d (regenerate with -update)",
			resultsGolden, len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("result changed:\n  golden: %s\n  got:    %s", want[i], have[i])
		}
	}
}
