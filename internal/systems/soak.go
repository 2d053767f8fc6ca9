package systems

// Soak testing: randomized fault plans crossed with every system and a set
// of benchmarks, asserting the property the fault injector is built around —
// faults are performance-only. A correct hierarchy under any order-preserving
// plan finishes with exactly the golden final-memory image, the watchdog
// never fires on a healthy run, and the same plan replayed yields the same
// cycle count bit-for-bit.

import (
	"fmt"
	"sort"

	"fusion/internal/faults"
	"fusion/internal/mem"
	"fusion/internal/workloads"
)

// SoakConfig parameterizes one soak sweep.
type SoakConfig struct {
	// Benchmarks to run; empty defaults to a small representative pair.
	Benchmarks []string
	// Systems to run; empty defaults to every registered Kind (Kinds()).
	Systems []Kind
	// Seeds generates one randomized fault plan per entry.
	Seeds []uint64
	// WatchdogCycles arms the forward-progress watchdog on every run
	// (zero: 2_000_000 — far beyond any legitimate quiet stretch).
	WatchdogCycles uint64
	// Paranoid additionally sweeps protocol invariants during each run.
	Paranoid bool
	// Workers bounds the sweep's worker pool (<=0: GOMAXPROCS). Each cell
	// is an independent simulation with its own engine and its own
	// plan-seeded randomness, and results are assembled in cell order, so
	// the report is identical for any worker count.
	Workers int
}

// SoakFailure describes one failed soak cell.
type SoakFailure struct {
	Benchmark string
	System    string
	Plan      faults.Plan
	Err       error
}

func (f SoakFailure) String() string {
	return fmt.Sprintf("%s/%s seed=%d: %v", f.Benchmark, f.System, f.Plan.Seed, f.Err)
}

// SoakResult summarizes a sweep.
type SoakResult struct {
	Runs     int
	Failures []SoakFailure
	// FaultsInjected totals injected faults across all runs — a sweep that
	// injected nothing proves nothing.
	FaultsInjected uint64
}

// Soak runs the sweep: benchmarks x systems x randomized fault plans. Every
// cell must finish, match the golden final-memory image, and keep the
// watchdog quiet. Each failing cell is reported with the plan that provoked
// it, which (with the benchmark and system) reproduces the failure exactly.
func Soak(sc SoakConfig) SoakResult {
	if len(sc.Benchmarks) == 0 {
		sc.Benchmarks = []string{"adpcm", "fft"}
	}
	if len(sc.Systems) == 0 {
		sc.Systems = Kinds()
	}
	if sc.WatchdogCycles == 0 {
		sc.WatchdogCycles = 2_000_000
	}
	// Enumerate the full cell matrix up front, then fan out over a bounded
	// worker pool; per-cell outcomes land in index slots, so the report is
	// assembled in cell order no matter which worker finished first.
	type cell struct {
		bench string
		kind  Kind
		plan  faults.Plan
	}
	benches := make(map[string]*workloads.Benchmark, len(sc.Benchmarks))
	wants := make(map[string]map[mem.VAddr]uint64, len(sc.Benchmarks))
	for _, name := range sc.Benchmarks {
		if _, ok := benches[name]; !ok {
			b := workloads.Get(name)
			benches[name] = b
			wants[name] = ExpectedVersions(b)
		}
	}
	var cells []cell
	for _, seed := range sc.Seeds {
		plan := faults.RandomPlan(seed)
		for _, name := range sc.Benchmarks {
			for _, kind := range sc.Systems {
				cells = append(cells, cell{bench: name, kind: kind, plan: plan})
			}
		}
	}

	cellErrs := make([]error, len(cells))
	cellFaults := make([]uint64, len(cells))
	ForEach(len(cells), sc.Workers, func(i int) {
		c := &cells[i]
		cfg := DefaultConfig(c.kind)
		cfg.Faults = &c.plan
		cfg.WatchdogCycles = sc.WatchdogCycles
		cfg.Paranoid = sc.Paranoid
		res, err := Run(benches[c.bench], cfg)
		if err != nil {
			cellErrs[i] = err
			return
		}
		cellFaults[i] = uint64(res.Faults)
		cellErrs[i] = diffVersions(wants[c.bench], res.FinalVersions)
	})

	out := SoakResult{Runs: len(cells)}
	for i, c := range cells {
		out.FaultsInjected += cellFaults[i]
		if cellErrs[i] != nil {
			out.Failures = append(out.Failures, SoakFailure{
				Benchmark: c.bench, System: c.kind.String(), Plan: c.plan, Err: cellErrs[i]})
		}
	}
	return out
}

// diffVersions compares a run's final memory image against the golden one.
func diffVersions(want, got map[mem.VAddr]uint64) error {
	// Sorted address order makes the reported first mismatch deterministic.
	addrs := make([]mem.VAddr, 0, len(want))
	for va := range want {
		addrs = append(addrs, va)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	bad := 0
	var first string
	for _, va := range addrs {
		wv := want[va]
		if gv := got[va]; gv != wv {
			if bad == 0 {
				first = fmt.Sprintf("line %#x: final v%d, golden v%d", uint64(va), gv, wv)
			}
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d final-memory mismatches (%s)", bad, first)
	}
	return nil
}
