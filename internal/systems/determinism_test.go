package systems

// Determinism regression test: the invariant fusionlint's rules exist to
// protect. Running the same benchmark on the same system twice — each run
// from a freshly generated benchmark, so no state can leak between them —
// must produce byte-identical reports: cycles, every stat counter, every
// energy category, per-function aggregates, and the final memory image.
// Any reintroduced map-order, wall-clock, or global-rand dependence shows
// up here as a diff.

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fusion/internal/mem"
	"fusion/internal/workloads"
)

// renderResult serializes everything a Result reports into one canonical
// byte string. Map-valued fields are rendered in sorted key order — the
// point is to compare values across runs, not iteration order.
func renderResult(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "benchmark %s system %s\n", res.Benchmark, res.System)
	fmt.Fprintf(&b, "cycles %d dmacycles %d\n", res.Cycles, res.DMACycles)
	fmt.Fprintf(&b, "wset %d dmabytes %d dmaxfers %d fwd %d\n",
		res.WorkingSetBytes, res.DMABytes, res.DMATransfers, res.ForwardedBlocks)

	res.Stats.Dump(&b)
	res.Energy.Dump(&b)

	for i, ph := range res.Phases {
		fmt.Fprintf(&b, "phase %d %s axc%d cycles %d dma %d energy %x\n",
			i, ph.Function, ph.AXC, ph.Cycles, ph.DMACycles, ph.EnergyPJ)
	}
	fns := make([]string, 0, len(res.PerFunction))
	for fn := range res.PerFunction {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		pf := res.PerFunction[fn]
		fmt.Fprintf(&b, "fn %s axc%d cycles %d dma %d energy %x\n",
			fn, pf.AXC, pf.Cycles, pf.DMACycles, pf.EnergyPJ)
	}
	addrs := make([]mem.VAddr, 0, len(res.FinalVersions))
	for va := range res.FinalVersions {
		addrs = append(addrs, va)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, va := range addrs {
		fmt.Fprintf(&b, "line %#x v%d\n", uint64(va), res.FinalVersions[va])
	}
	return b.String()
}

// runOnce generates the benchmark from scratch and runs it, so consecutive
// calls share nothing but the code under test.
func runOnce(t *testing.T, name string, kind Kind) string {
	t.Helper()
	res, err := Run(workloads.Get(name), DefaultConfig(kind))
	if err != nil {
		t.Fatalf("%s on %v: %v", name, kind, err)
	}
	return renderResult(res)
}

// TestRunsAreBitIdentical replays every system twice and demands identical
// reports, byte for byte. Energy floats are rendered with %x so "close
// enough" cannot pass — summation order differences change the bits.
func TestRunsAreBitIdentical(t *testing.T) {
	const bench = "adpcm"
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			first := runOnce(t, bench, kind)
			second := runOnce(t, bench, kind)
			if first == second {
				return
			}
			fl, sl := strings.Split(first, "\n"), strings.Split(second, "\n")
			for i := range fl {
				if i >= len(sl) || fl[i] != sl[i] {
					t.Fatalf("run reports diverge at line %d:\n  run1: %s\n  run2: %s",
						i+1, fl[i], sl[min(i, len(sl)-1)])
				}
			}
			t.Fatalf("run reports diverge in length: %d vs %d lines", len(fl), len(sl))
		})
	}
}
