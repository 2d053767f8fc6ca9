package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Artifact is one regenerable table or figure: its name, the grid of runs
// it reads, its typed rows and its text renderer.
type Artifact struct {
	Name   string
	grid   grid
	data   func(*Runner) (any, error)
	render func(*Runner, io.Writer) error
}

// artifact builds a table entry from a definition and a renderer of its
// typed rows.
func artifact[T any](name string, d def[T], render func(io.Writer, T)) Artifact {
	return Artifact{
		Name: name,
		grid: d.grid,
		data: func(r *Runner) (any, error) {
			v, err := d.data(r)
			if err != nil {
				return nil, err
			}
			return v, nil
		},
		render: func(r *Runner, w io.Writer) error {
			v, err := d.data(r)
			if err != nil {
				return err
			}
			render(w, v)
			return nil
		},
	}
}

// artifacts is every regenerable artifact in the paper's order. The charts
// draw fig6a's and fig6b's rows.
var artifacts = []Artifact{
	artifact("table1", table1Def, printTable1),
	artifact("table3", table3Def, printTable3),
	artifact("fig6a", fig6aDef, printFigure6a),
	artifact("fig6b", fig6bDef, printFigure6b),
	artifact("fig6c", fig6cDef, printFigure6c),
	artifact("fig6d", fig6dDef, printFigure6d),
	artifact("fig6e", fig6eDef, printFigure6e),
	artifact("table4", table4Def, printTable4),
	artifact("table5", table5Def, printTable5),
	artifact("fig7", fig7Def, printFigure7),
	artifact("table6", table6Def, printTable6),
	artifact("chart6a", fig6aDef, printChart6a),
	artifact("chart6b", fig6bDef, printChart6b),
	artifact("ablate-lease", ablateLeaseDef, printAblateLease),
	artifact("ablate-dma", ablateDMADef, printAblateDMADepth),
	artifact("ablate-tiles", ablateTilesDef, printAblateTiles),
}

// artifactNamed returns the artifact called name, or nil.
func artifactNamed(name string) *Artifact {
	for i := range artifacts {
		if artifacts[i].Name == name {
			return &artifacts[i]
		}
	}
	return nil
}

// All lists the regenerable artifacts in the paper's order.
func (r *Runner) All() []Artifact { return append([]Artifact(nil), artifacts...) }

// Names lists the regenerable artifacts' names in the paper's order.
func Names() []string {
	names := make([]string, len(artifacts))
	for i, a := range artifacts {
		names[i] = a.Name
	}
	return names
}

// Print runs the named experiment ("all" runs every one). The needed
// simulations are prefetched across the worker pool first; rendering then
// reads memoized results in fixed artifact order.
func (r *Runner) Print(w io.Writer, name string) error {
	if name == "all" {
		if err := r.prefetchAll(); err != nil {
			return err
		}
		for _, a := range artifacts {
			if err := a.render(r, w); err != nil {
				return fmt.Errorf("%s: %w", a.Name, err)
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	a := artifactNamed(name)
	if a == nil {
		return fmt.Errorf("unknown experiment %q (try: %s, or all)", name, strings.Join(Names(), " "))
	}
	if err := r.Prefetch(name); err != nil {
		return err
	}
	return a.render(r, w)
}

// printTable1 renders the accelerator-characteristics table.
func printTable1(w io.Writer, rows []Table1Row) {
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
}

// printTable3 renders the execution-metrics table.
func printTable3(w io.Writer, d table3Data) {
	ratioOf := map[string]float64{}
	for _, rt := range d.Ratios {
		ratioOf[rt.Benchmark] = rt.Ratio
	}
	fmt.Fprintln(w, "Table 3: Accelerator Execution Metrics")
	fmt.Fprintf(w, "%-20s %10s %6s %6s\n", "Bench/Function", "KCyc", "LT", "%En")
	last := ""
	for _, row := range d.Rows {
		if row.Benchmark != last {
			last = row.Benchmark
			fmt.Fprintf(w, "%s (cache/compute energy = %.1f)\n", row.Benchmark, ratioOf[row.Benchmark])
		}
		fmt.Fprintf(w, "  %-18s %10.1f %6d %6.1f\n",
			row.Function, row.KCycles, row.LeaseTime, row.PctEnergy)
	}
}

// printFigure6a renders the energy-breakdown series.
func printFigure6a(w io.Writer, rows []Fig6aRow) {
	fmt.Fprintln(w, "Figure 6a: Dynamic energy breakdown (pJ; Norm = on-chip total vs SCRATCH)")
	fmt.Fprintf(w, "%-7s %-9s %12s %12s %12s %12s %12s %10s %10s %7s\n",
		"Bench", "System", "L0X/Spad", "L1X", "TileLink", "HostLink", "L2", "VM", "Compute", "Norm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12.0f %12.0f %12.0f %12.0f %12.0f %10.0f %10.0f %7.3f\n",
			row.Benchmark, row.System, row.Local, row.L1X, row.TileNet,
			row.HostNet, row.L2, row.VM, row.Compute, row.Normalized)
	}
}

// printFigure6b renders the normalized cycle-time series.
func printFigure6b(w io.Writer, rows []Fig6bRow) {
	fmt.Fprintln(w, "Figure 6b: Cycles normalized to SCRATCH (lower is better)")
	fmt.Fprintf(w, "%-7s %-9s %12s %12s %8s\n", "Bench", "System", "Cycles", "DMACycles", "Norm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12d %12d %8.3f\n",
			row.Benchmark, row.System, row.Cycles, row.DMACycles, row.Normalized)
	}
}

// printFigure6c renders the link-traffic series.
func printFigure6c(w io.Writer, rows []Fig6cRow) {
	fmt.Fprintln(w, "Figure 6c: Link traffic (message counts)")
	fmt.Fprintf(w, "%-7s %-9s %12s %12s %12s %12s\n",
		"Bench", "System", "AXC->L1Xmsg", "L1X->AXCdata", "L1X<->L2msg", "L1X<->L2flit")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12d %12d %12d %12d\n",
			row.Benchmark, row.System, row.TileReqs, row.TileData,
			row.HostMsgs, row.HostFlits)
	}
}

// printFigure6d renders the DMA-traffic table.
func printFigure6d(w io.Writer, rows []Fig6dRow) {
	fmt.Fprintln(w, "Figure 6d: SCRATCH working set vs DMA traffic")
	fmt.Fprintf(w, "%-7s %10s %10s %10s %8s\n", "Bench", "WSet(kB)", "DMA(kB)", "#DMA", "Ratio")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %10.1f %10.1f %10d %8.1f\n",
			row.Benchmark, row.WSetKB, row.DMAKB, row.DMATransfers, row.Ratio)
	}
}

// printFigure6e renders the all-systems comparison.
func printFigure6e(w io.Writer, rows []Fig6eRow) {
	fmt.Fprintln(w, "Figure 6e: All systems — cycles and on-chip energy vs SCRATCH")
	fmt.Fprintf(w, "%-7s %-9s %12s %14s %8s %8s\n",
		"Bench", "System", "Cycles", "Energy(pJ)", "CycNorm", "EnNorm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %-9s %12d %14.0f %8.3f %8.3f\n",
			row.Benchmark, row.System, row.Cycles, row.EnergyPJ,
			row.CycleNorm, row.EnergyNorm)
	}
}

// printTable4 renders the write-policy bandwidth table.
func printTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4: L0X bandwidth in flits (8 bytes/flit)")
	fmt.Fprintf(w, "%-7s %14s %12s %14s\n", "Bench", "Write-Through", "Writeback", "%DirtyBlocks")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %14d %12d %14.1f\n",
			row.Benchmark, row.WriteThrough, row.Writeback, row.PctDirtyBlocks)
	}
}

// printTable5 renders the write-forwarding table.
func printTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "Table 5: FUSION-Dx inter-AXC forwarding")
	fmt.Fprintf(w, "%-7s %12s %14s %14s\n", "Bench", "#FWD Blocks", "AXC Cache", "AXC Link")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %12d %13.1f%% %13.1f%%\n",
			row.Benchmark, row.ForwardedBlocks, row.PctCacheSaved, row.PctLinkSaved)
	}
}

// printFigure7 renders the Large-vs-Small comparison.
func printFigure7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintln(w, "Figure 7: AXC-Large (8K L0X / 256K L1X) vs Small (4K / 64K), FUSION")
	fmt.Fprintf(w, "%-7s %14s %14s\n", "Bench", "Energy(L/S)", "Cycles(L/S)")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %14.3f %14.3f\n", row.Benchmark, row.EnergyRatio, row.CycleRatio)
	}
}

// printTable6 renders the address-translation table.
func printTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintln(w, "Table 6: Virtual memory lookups (FUSION)")
	fmt.Fprintf(w, "%-7s %10s %10s %10s\n", "Bench", "AX-TLB", "AX-RMAP", "HostFwds")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %10d %10d %10d\n",
			row.Benchmark, row.TLBLookups, row.RMAPLookups, row.HostFwds)
	}
}
