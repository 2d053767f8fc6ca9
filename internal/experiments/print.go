package experiments

import (
	"fmt"
	"io"
	"strings"
)

// PrintTable1 renders the accelerator-characteristics table.
func (r *Runner) PrintTable1(w io.Writer) error {
	rows, err := r.Table1()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 1: Accelerator Characteristics")
	fmt.Fprintf(w, "%-7s %-12s %7s %6s %6s %6s %6s %5s %6s\n",
		"Bench", "Function", "%Time", "%INT", "%FP", "%LD", "%ST", "MLP", "%SHR")
	last := ""
	for _, row := range rows {
		b := ""
		if row.Benchmark != last {
			b = row.Benchmark
			last = row.Benchmark
		}
		fmt.Fprintf(w, "%-7s %-12s %7.1f %6.1f %6.1f %6.1f %6.1f %5.1f %6.1f\n",
			b, row.Function, row.PctTime, row.PctInt, row.PctFP, row.PctLd,
			row.PctSt, row.MLP, row.PctShr)
	}
	return nil
}

// PrintTable3 renders the execution-metrics table.
func (r *Runner) PrintTable3(w io.Writer) error {
	rows, ratios, err := r.Table3()
	if err != nil {
		return err
	}
	ratioOf := map[string]float64{}
	for _, rt := range ratios {
		ratioOf[rt.Benchmark] = rt.Ratio
	}
	fmt.Fprintln(w, "Table 3: Accelerator Execution Metrics")
	fmt.Fprintf(w, "%-20s %10s %6s %6s\n", "Bench/Function", "KCyc", "LT", "%En")
	last := ""
	for _, row := range rows {
		if row.Benchmark != last {
			last = row.Benchmark
			fmt.Fprintf(w, "%s (cache/compute energy = %.1f)\n", row.Benchmark, ratioOf[row.Benchmark])
		}
		fmt.Fprintf(w, "  %-18s %10.1f %6d %6.1f\n",
			row.Function, row.KCycles, row.LeaseTime, row.PctEnergy)
	}
	return nil
}

// PrintFigure6a renders the energy-breakdown series.
func (r *Runner) PrintFigure6a(w io.Writer) error {
	rows, err := r.Figure6a()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6a: Dynamic energy breakdown (pJ; Norm = on-chip total vs SCRATCH)")
	fmt.Fprintf(w, "%-7s %-9s %12s %12s %12s %12s %12s %10s %10s %7s\n",
		"Bench", "System", "L0X/Spad", "L1X", "TileLink", "HostLink", "L2", "VM", "Compute", "Norm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12.0f %12.0f %12.0f %12.0f %12.0f %10.0f %10.0f %7.3f\n",
			row.Benchmark, row.System, row.Local, row.L1X, row.TileNet,
			row.HostNet, row.L2, row.VM, row.Compute, row.Normalized)
	}
	return nil
}

// PrintFigure6b renders the normalized cycle-time series.
func (r *Runner) PrintFigure6b(w io.Writer) error {
	rows, err := r.Figure6b()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6b: Cycles normalized to SCRATCH (lower is better)")
	fmt.Fprintf(w, "%-7s %-9s %12s %12s %8s\n", "Bench", "System", "Cycles", "DMACycles", "Norm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12d %12d %8.3f\n",
			row.Benchmark, row.System, row.Cycles, row.DMACycles, row.Normalized)
	}
	return nil
}

// PrintFigure6c renders the link-traffic series.
func (r *Runner) PrintFigure6c(w io.Writer) error {
	rows, err := r.Figure6c()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6c: Link traffic (message counts)")
	fmt.Fprintf(w, "%-7s %-9s %12s %12s %12s %12s\n",
		"Bench", "System", "AXC->L1Xmsg", "L1X->AXCdata", "L1X<->L2msg", "L1X<->L2flit")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12d %12d %12d %12d\n",
			row.Benchmark, row.System, row.TileReqs, row.TileData,
			row.HostMsgs, row.HostFlits)
	}
	return nil
}

// PrintFigure6d renders the DMA-traffic table.
func (r *Runner) PrintFigure6d(w io.Writer) error {
	rows, err := r.Figure6d()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6d: SCRATCH working set vs DMA traffic")
	fmt.Fprintf(w, "%-7s %10s %10s %10s %8s\n", "Bench", "WSet(kB)", "DMA(kB)", "#DMA", "Ratio")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %10.1f %10.1f %10d %8.1f\n",
			row.Benchmark, row.WSetKB, row.DMAKB, row.DMATransfers, row.Ratio)
	}
	return nil
}

// PrintFigure6e renders the all-systems comparison.
func (r *Runner) PrintFigure6e(w io.Writer) error {
	rows, err := r.Figure6e()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 6e: All systems — cycles and on-chip energy vs SCRATCH")
	fmt.Fprintf(w, "%-7s %-9s %12s %14s %8s %8s\n",
		"Bench", "System", "Cycles", "Energy(pJ)", "CycNorm", "EnNorm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12d %14.0f %8.3f %8.3f\n",
			row.Benchmark, row.System, row.Cycles, row.EnergyPJ,
			row.CycleNorm, row.EnergyNorm)
	}
	return nil
}

// PrintTable4 renders the write-policy bandwidth table.
func (r *Runner) PrintTable4(w io.Writer) error {
	rows, err := r.Table4()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 4: L0X bandwidth in flits (8 bytes/flit)")
	fmt.Fprintf(w, "%-7s %14s %12s %14s\n", "Bench", "Write-Through", "Writeback", "%DirtyBlocks")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %14d %12d %14.1f\n",
			row.Benchmark, row.WriteThrough, row.Writeback, row.PctDirtyBlocks)
	}
	return nil
}

// PrintTable5 renders the write-forwarding table.
func (r *Runner) PrintTable5(w io.Writer) error {
	rows, err := r.Table5()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 5: FUSION-Dx inter-AXC forwarding")
	fmt.Fprintf(w, "%-7s %12s %14s %14s\n", "Bench", "#FWD Blocks", "AXC Cache", "AXC Link")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %12d %13.1f%% %13.1f%%\n",
			row.Benchmark, row.ForwardedBlocks, row.PctCacheSaved, row.PctLinkSaved)
	}
	return nil
}

// PrintFigure7 renders the Large-vs-Small comparison.
func (r *Runner) PrintFigure7(w io.Writer) error {
	rows, err := r.Figure7()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 7: AXC-Large (8K L0X / 256K L1X) vs Small (4K / 64K), FUSION")
	fmt.Fprintf(w, "%-7s %14s %14s\n", "Bench", "Energy(L/S)", "Cycles(L/S)")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %14.3f %14.3f\n", row.Benchmark, row.EnergyRatio, row.CycleRatio)
	}
	return nil
}

// PrintTable6 renders the address-translation table.
func (r *Runner) PrintTable6(w io.Writer) error {
	rows, err := r.Table6()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Table 6: Virtual memory lookups (FUSION)")
	fmt.Fprintf(w, "%-7s %10s %10s %10s\n", "Bench", "AX-TLB", "AX-RMAP", "HostFwds")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %10d %10d %10d\n",
			row.Benchmark, row.TLBLookups, row.RMAPLookups, row.HostFwds)
	}
	return nil
}

// All maps experiment names to their printers, in the paper's order.
func (r *Runner) All() []struct {
	Name  string
	Print func(io.Writer) error
} {
	return []struct {
		Name  string
		Print func(io.Writer) error
	}{
		{"table1", r.PrintTable1},
		{"table3", r.PrintTable3},
		{"fig6a", r.PrintFigure6a},
		{"fig6b", r.PrintFigure6b},
		{"fig6c", r.PrintFigure6c},
		{"fig6d", r.PrintFigure6d},
		{"fig6e", r.PrintFigure6e},
		{"table4", r.PrintTable4},
		{"table5", r.PrintTable5},
		{"fig7", r.PrintFigure7},
		{"table6", r.PrintTable6},
		{"chart6a", r.PrintChart6a},
		{"chart6b", r.PrintChart6b},
		{"ablate-lease", r.PrintAblateLease},
		{"ablate-dma", r.PrintAblateDMADepth},
		{"ablate-tiles", r.PrintAblateTiles},
	}
}

// Print runs the named experiment ("all" runs every one). The needed
// simulations are prefetched across the worker pool first; rendering then
// reads memoized results in fixed artifact order.
func (r *Runner) Print(w io.Writer, name string) error {
	if name == "all" {
		if err := r.prefetchAll(); err != nil {
			return err
		}
		for _, e := range r.All() {
			if err := e.Print(w); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	var names []string
	for _, e := range r.All() {
		if e.Name == name {
			if err := r.Prefetch(name); err != nil {
				return err
			}
			return e.Print(w)
		}
		names = append(names, e.Name)
	}
	return fmt.Errorf("unknown experiment %q (try: %s, or all)", name, strings.Join(names, " "))
}
