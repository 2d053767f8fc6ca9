package experiments

// Ablations beyond the paper's tables and figures: sensitivity studies on
// the design choices DESIGN.md calls out — lease length, DMA engine depth,
// and accelerator placement (the paper's collocation assumption).

import (
	"fmt"
	"io"

	"fusion/internal/systems"
)

// LeaseRow is one point of the lease-length sensitivity sweep.
type LeaseRow struct {
	Benchmark  string
	Scale      float64
	Cycles     uint64
	Grants     int64   // L1X lease grants (read + write)
	EnergyNorm float64 // on-chip energy vs scale=1.0
	CycleNorm  float64
}

// The lease sweep's baseline is scale 1.0, the Table 3 values.
var ablateLeaseDef = def[[]LeaseRow]{
	grid{[]string{"adpcm", "filt", "fft"}, sweep(systems.Fusion,
		func(c *systems.Config, sc float64) { c.LeaseScale = sc }, 0.25, 0.5, 1.0, 2.0, 4.0)},
	leaseRows,
}

// AblateLease sweeps the ACC lease length around the paper's Table 3
// values. Short leases force self-invalidation churn (Lesson 4's thrash);
// long leases delay host forwards and epoch handoffs.
func (r *Runner) AblateLease() ([]LeaseRow, error) { return ablateLeaseDef.data(r) }

func leaseRows(rs results) []LeaseRow {
	var rows []LeaseRow
	baseCol := 0
	for j, cfg := range rs.cfgs {
		if cfg.LeaseScale == 1.0 {
			baseCol = j
		}
	}
	for i, name := range rs.names {
		base := rs.run(i, baseCol)
		for j, cfg := range rs.cfgs {
			res := rs.run(i, j)
			rows = append(rows, LeaseRow{
				Benchmark:  name,
				Scale:      cfg.LeaseScale,
				Cycles:     res.Cycles,
				Grants:     res.LeaseGrants,
				EnergyNorm: res.OnChipPJ() / base.OnChipPJ(),
				CycleNorm:  float64(res.Cycles) / float64(base.Cycles),
			})
		}
	}
	return rows
}

// DMARow is one point of the DMA-depth sensitivity sweep.
type DMARow struct {
	Benchmark string
	Depth     int
	Cycles    uint64
	// FusionAdvantage is FUSION's speedup over this SCRATCH variant.
	FusionAdvantage float64
}

// FUSION, the DMA sweep's baseline, is the first config.
var ablateDMADef = def[[]DMARow]{
	grid{[]string{"fft", "disp", "hist"}, append(defaults(systems.Fusion),
		sweep(systems.Scratch, func(c *systems.Config, depth int) {
			c.DMAOutstanding = depth
			if depth > 1 {
				c.DMAGap = 4
			}
		}, 1, 2, 4, 8)...)},
	dmaRows,
}

// AblateDMADepth varies the oracle DMA engine's transfer pipelining. The
// paper's conclusions rest on a serial controller state machine; this
// sweep shows how much of FUSION's advantage an increasingly idealized DMA
// erodes.
func (r *Runner) AblateDMADepth() ([]DMARow, error) { return ablateDMADef.data(r) }

func dmaRows(rs results) []DMARow {
	var rows []DMARow
	for i, name := range rs.names {
		fu := rs.run(i, 0)
		for j := 1; j < len(rs.cfgs); j++ {
			res := rs.run(i, j)
			rows = append(rows, DMARow{
				Benchmark:       name,
				Depth:           rs.cfgs[j].DMAOutstanding,
				Cycles:          res.Cycles,
				FusionAdvantage: float64(res.Cycles) / float64(fu.Cycles),
			})
		}
	}
	return rows
}

// TilesRow compares collocated vs split accelerator placement.
type TilesRow struct {
	Benchmark  string
	Tiles      int
	Cycles     uint64
	EnergyNorm float64 // vs single tile
	CycleNorm  float64
	HostMsgs   int64 // every tile's messages on its route to the L2
}

// One tile, the placement sweep's baseline, is the first config.
var ablateTilesDef = def[[]TilesRow]{
	grid{[]string{"fft", "adpcm", "susan"}, sweep(systems.Fusion,
		func(c *systems.Config, tiles int) { c.Tiles = tiles }, 1, 2)},
	tilesRows,
}

// AblateTiles quantifies the paper's collocation assumption ("we assume
// all accelerators derived from an application are collocated on the same
// accelerator tile"): splitting a pipeline across tiles pushes every
// producer-consumer handoff through host MESI.
func (r *Runner) AblateTiles() ([]TilesRow, error) { return ablateTilesDef.data(r) }

func tilesRows(rs results) []TilesRow {
	var rows []TilesRow
	for i, name := range rs.names {
		base := rs.run(i, 0)
		baseE, baseC := base.OnChipPJ(), float64(base.Cycles)
		for j, cfg := range rs.cfgs {
			res := rs.run(i, j)
			rows = append(rows, TilesRow{
				Benchmark:  name,
				Tiles:      cfg.Tiles,
				Cycles:     res.Cycles,
				EnergyNorm: res.OnChipPJ() / baseE,
				CycleNorm:  float64(res.Cycles) / baseC,
				HostMsgs:   res.HostTiles.Msgs,
			})
		}
	}
	return rows
}

// printAblateLease renders the lease sweep.
func printAblateLease(w io.Writer, rows []LeaseRow) {
	fmt.Fprintln(w, "Ablation: ACC lease length (FUSION; 1.0 = Table 3 LT values)")
	fmt.Fprintf(w, "%-7s %7s %12s %12s %10s %10s\n",
		"Bench", "Scale", "Cycles", "L1X grants", "CycNorm", "EnNorm")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %7.2f %12d %12d %10.3f %10.3f\n",
			row.Benchmark, row.Scale, row.Cycles, row.Grants, row.CycleNorm, row.EnergyNorm)
	}
}

// printAblateDMADepth renders the DMA sweep.
func printAblateDMADepth(w io.Writer, rows []DMARow) {
	fmt.Fprintln(w, "Ablation: oracle DMA transfer depth (SCRATCH vs fixed FUSION)")
	fmt.Fprintf(w, "%-7s %7s %12s %18s\n", "Bench", "Depth", "Cycles", "FUSION advantage")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %7d %12d %17.2fx\n",
			row.Benchmark, row.Depth, row.Cycles, row.FusionAdvantage)
	}
}

// printAblateTiles renders the placement comparison.
func printAblateTiles(w io.Writer, rows []TilesRow) {
	fmt.Fprintln(w, "Ablation: accelerator placement (collocated vs split across 2 tiles)")
	fmt.Fprintf(w, "%-7s %7s %12s %10s %10s %12s\n",
		"Bench", "Tiles", "Cycles", "CycNorm", "EnNorm", "Tile<->L2msg")
	for _, row := range rows {
		fmt.Fprintf(w, "%-7s %7d %12d %10.3f %10.3f %12d\n",
			row.Benchmark, row.Tiles, row.Cycles, row.CycleNorm, row.EnergyNorm, row.HostMsgs)
	}
}
