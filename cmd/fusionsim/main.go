// Command fusionsim runs benchmarks on the systems the paper compares and
// reports cycles, energy, and traffic.
//
// Usage:
//
//	fusionsim -bench fft -system fusion
//	fusionsim -bench hist -system scratch -phases
//	fusionsim -bench adpcm -system fusion-dx -stats -energy
//	fusionsim -bench disp -system fusion -large
//	fusionsim -bench all -system all -j 8       # full sweep, one line per cell
//	fusionsim -bench fft,adpcm -system fusion,shared
//	fusionsim -litmus all                        # directed coherence litmus suite
//	fusionsim -litmus lease-expiry               # one case, all its systems
//	fusionsim -bench fft -deadline 30s           # bound wall time; abort is structured
//	fusionsim -bench fft -maxcycles 1000000      # bound simulated cycles likewise
//
// Systems: scratch, shared, fusion, fusion-dx, adaptive, hydra.
// Benchmarks: fft, disp, track, adpcm, susan, filt, hist.
//
// When -bench/-system name more than one cell (comma-separated lists or
// "all"), the cells run as a deterministic parallel sweep: -j bounds the
// worker pool and the report rows are printed in cell order, byte-identical
// for any worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"fusion"
)

// systemNames derives from the systems registry, so "-system all" and the
// flag help track new Kinds without a CLI change.
var systemNames = fusion.Systems()

func systemOf(name string) (fusion.System, bool) { return fusion.ParseSystem(name) }

// expandList resolves a comma-separated flag value against the valid set,
// with "all" meaning every entry in canonical order.
func expandList(flagVal string, valid []string, what string) []string {
	if strings.EqualFold(flagVal, "all") {
		return valid
	}
	var out []string
	for _, name := range strings.Split(flagVal, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		out = append(out, name)
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "no %s named in %q\n", what, flagVal)
		os.Exit(2)
	}
	return out
}

func main() {
	var (
		benchName = flag.String("bench", "fft", "benchmark(s): comma-separated from "+strings.Join(fusion.Benchmarks(), ", ")+", or all")
		benchFile = flag.String("benchfile", "", "run a benchmark loaded from this JSON file (see tracegen -save)")
		sysName   = flag.String("system", "fusion", "system(s): comma-separated from "+strings.Join(systemNames, ", ")+", or all")
		large     = flag.Bool("large", false, "AXC-Large configuration (8K L0X / 256K L1X, Section 5.5)")
		wt        = flag.Bool("writethrough", false, "disable L0X write caching (Table 4)")
		phases    = flag.Bool("phases", false, "print per-phase cycles and energy")
		stats     = flag.Bool("stats", false, "dump all statistics counters")
		energyOut = flag.Bool("energy", false, "dump the energy meter by component")
		verify    = flag.Bool("verify", true, "check final memory state against sequential semantics")
		paranoid  = flag.Bool("paranoid", false, "check protocol invariants every 64 cycles (slower)")
		watchdog  = flag.Uint64("watchdog", 1_000_000, "halt with a diagnostic dump after this many cycles without forward progress (0 disables)")
		deadline  = flag.Duration("deadline", 0, "abort with a structured timeout + diagnostic dump after this much wall time (0 disables)")
		maxCycles = flag.Uint64("maxcycles", 0, "abort with a structured budget error after this many simulated cycles (0: default budget)")
		faultSeed = flag.Uint64("faultseed", 0, "inject a random fault plan derived from this seed (0 disables)")
		faultPlan = flag.String("faultplan", "", "inject the JSON fault plan loaded from this file (overrides -faultseed)")
		litmusArg = flag.String("litmus", "", "run a directed coherence litmus case (or all) instead of a benchmark")
		workers   = flag.Int("j", 0, "parallel sweep workers when multiple cells are named (0: GOMAXPROCS)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf == "" {
			return
		}
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}()

	if *litmusArg != "" {
		runLitmus(*litmusArg)
		return
	}

	var basePlan *fusion.FaultPlan
	if *faultPlan != "" {
		plan, err := fusion.LoadFaultPlanFile(*faultPlan)
		if err != nil {
			fatal(err)
		}
		basePlan = &plan
	} else if *faultSeed != 0 {
		plan := fusion.RandomFaultPlan(*faultSeed)
		basePlan = &plan
	}

	configure := func(sys fusion.System) fusion.Config {
		cfg := fusion.DefaultConfig(sys)
		cfg.Large = *large
		cfg.WriteThrough = *wt
		cfg.Paranoid = *paranoid
		cfg.WatchdogCycles = *watchdog
		cfg.MaxCycles = *maxCycles // 0 is the default budget
		cfg.Faults = basePlan      // each run copies the plan it replays
		return cfg
	}

	// -deadline bounds the whole invocation's wall time: the simulation
	// aborts with a structured deadline error (and the watchdog's
	// diagnostic dump, when armed) instead of hanging forever.
	ctx := context.Background()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	benches := expandList(*benchName, fusion.Benchmarks(), "benchmark")
	sysNames := expandList(*sysName, systemNames, "system")
	if len(benches) > 1 || len(sysNames) > 1 {
		if *benchFile != "" {
			fmt.Fprintln(os.Stderr, "-benchfile cannot be combined with a multi-cell sweep")
			os.Exit(2)
		}
		runSweep(ctx, benches, sysNames, configure, *workers, *verify)
		return
	}

	sys, ok := systemOf(sysNames[0])
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", sysNames[0])
		os.Exit(2)
	}

	var b *fusion.Benchmark
	if *benchFile != "" {
		f, err := os.Open(*benchFile)
		if err != nil {
			fatal(err)
		}
		b, err = fusion.LoadBenchmarkJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		valid := false
		for _, n := range fusion.Benchmarks() {
			if n == benches[0] {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (valid: %s)\n",
				benches[0], strings.Join(fusion.Benchmarks(), ", "))
			os.Exit(2)
		}
		b = fusion.LoadBenchmark(benches[0])
	}
	cfg := configure(sys)
	if cfg.Faults != nil {
		fmt.Printf("fault plan       %+v\n", *cfg.Faults)
	}

	res, err := fusion.RunCtx(ctx, b, cfg)
	if err != nil {
		printRunError(err)
		os.Exit(1)
	}

	fmt.Printf("benchmark        %s\n", res.Benchmark)
	fmt.Printf("system           %s\n", res.System)
	fmt.Printf("cycles           %d\n", res.Cycles)
	if res.DMACycles > 0 {
		fmt.Printf("dma cycles       %d (%.0f%% of total)\n", res.DMACycles,
			100*float64(res.DMACycles)/float64(res.Cycles))
		fmt.Printf("dma transfers    %d (%.1f kB)\n", res.DMATransfers,
			float64(res.DMABytes)/1024)
	}
	if res.ForwardedBlocks > 0 {
		fmt.Printf("forwarded blocks %d\n", res.ForwardedBlocks)
	}
	fmt.Printf("working set      %.1f kB\n", float64(res.WorkingSetBytes)/1024)
	fmt.Printf("on-chip energy   %.2f uJ\n", res.OnChipPJ()/1e6)
	fmt.Printf("total energy     %.2f uJ (incl. DRAM)\n", res.Energy.Total()/1e6)

	if *verify {
		want := fusion.ExpectedVersions(b)
		bad := 0
		for va, wv := range want {
			if res.FinalVersions[va] != wv {
				bad++
			}
		}
		if bad > 0 {
			fmt.Printf("VERIFY: FAILED — %d lines diverge from sequential semantics\n", bad)
			os.Exit(1)
		}
		fmt.Printf("verify           ok (%d lines match sequential semantics)\n", len(want))
	}

	if *phases {
		fmt.Println("\nper-phase:")
		for _, ph := range res.Phases {
			who := fmt.Sprintf("axc%d", ph.AXC)
			if ph.AXC < 0 {
				who = "host"
			}
			fmt.Printf("  %-16s %-5s %10d cycles %12.0f pJ", ph.Function, who, ph.Cycles, ph.EnergyPJ)
			if ph.DMACycles > 0 {
				fmt.Printf("  (%d in DMA)", ph.DMACycles)
			}
			fmt.Println()
		}
	}
	if *energyOut {
		fmt.Println("\nenergy by component:")
		res.Energy.Dump(os.Stdout)
	}
	if *stats {
		fmt.Println("\nstatistics:")
		res.Stats.Dump(os.Stdout)
	}
}

// runLitmus runs the named directed coherence litmus case (or "all") on
// each of its declared systems and prints one row per run; a failing run
// prints its structured report — every visibility-model violation names
// the agent, line, cycle, and the write it should have observed — and the
// process exits 1.
func runLitmus(name string) {
	reps, err := fusion.RunLitmus(name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "litmus: %v\n", err)
		os.Exit(2)
	}
	failed := false
	fmt.Printf("%-16s %-10s %8s %12s %s\n",
		"case", "system", "cycles", "observations", "result")
	for _, rep := range reps {
		verdict := "ok"
		if rep.Failed() {
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%-16s %-10s %8d %12d %s\n",
			rep.Case, rep.System, rep.Cycles, rep.Observations, verdict)
		for _, v := range rep.Violations {
			fmt.Printf("    violation: %s\n", v)
		}
		if rep.FinalMismatches > 0 {
			fmt.Printf("    final image: %d lines diverge from sequential semantics\n",
				rep.FinalMismatches)
		}
		if rep.ScenarioErr != nil {
			fmt.Printf("    scenario: %v\n", rep.ScenarioErr)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runSweep executes the benchmark x system cross product on a bounded
// worker pool and prints one row per cell, in cell order.
func runSweep(ctx context.Context, benches, sysNames []string, configure func(fusion.System) fusion.Config, workers int, verify bool) {
	var items []fusion.SweepItem
	goldens := make(map[string]map[fusion.VAddr]uint64)
	for _, bn := range benches {
		b := fusion.LoadBenchmark(bn)
		if verify {
			goldens[bn] = fusion.ExpectedVersions(b)
		}
		for _, sn := range sysNames {
			sys, ok := systemOf(sn)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown system %q\n", sn)
				os.Exit(2)
			}
			items = append(items, fusion.SweepItem{
				Key:    bn + "/" + sn,
				Bench:  b,
				Config: configure(sys),
			})
		}
	}
	results, err := fusion.RunSweepCtx(ctx, items, workers)
	if err != nil {
		printRunError(err)
		os.Exit(1)
	}
	fmt.Printf("%-18s %12s %12s %12s %10s", "bench/system", "cycles", "dma-cycles", "onchip(uJ)", "total(uJ)")
	if verify {
		fmt.Printf(" %8s", "verify")
	}
	fmt.Println()
	failed := false
	for i, res := range results {
		fmt.Printf("%-18s %12d %12d %12.2f %10.2f",
			items[i].Key, res.Cycles, res.DMACycles, res.OnChipPJ()/1e6, res.Energy.Total()/1e6)
		if verify {
			bad := 0
			for va, wv := range goldens[res.Benchmark] {
				if res.FinalVersions[va] != wv {
					bad++
				}
			}
			if bad > 0 {
				fmt.Printf(" %8s", fmt.Sprintf("FAIL(%d)", bad))
				failed = true
			} else {
				fmt.Printf(" %8s", "ok")
			}
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}

// printRunError renders a simulation failure, unwrapping the sweep key and
// the structured protocol diagnostic when present.
func printRunError(err error) {
	where := ""
	var se *fusion.SweepError
	if errors.As(err, &se) {
		where = se.Key + ": "
		err = se.Err // the key is already in the prefix
	}
	var pe *fusion.ProtocolError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "simulation failed: %s%s at cycle %d: %s\n",
			where, pe.Component, pe.Cycle, pe.Message)
		if pe.State != "" {
			fmt.Fprintf(os.Stderr, "--- state dump ---\n%s\n", pe.State)
		}
		return
	}
	fmt.Fprintf(os.Stderr, "simulation failed: %s%v\n", where, err)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
