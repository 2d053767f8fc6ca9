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

// AblateLease sweeps the ACC lease length around the paper's Table 3
// values. Short leases force self-invalidation churn (Lesson 4's thrash);
// long leases delay host forwards and epoch handoffs.
func (r *Runner) AblateLease() ([]LeaseRow, error) {
	scales := []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	var rows []LeaseRow
	for _, name := range []string{"adpcm", "filt", "fft"} {
		var baseE, baseC float64
		for _, sc := range scales {
			cfg := systems.DefaultConfig(systems.Fusion)
			cfg.LeaseScale = sc
			res, err := r.Run(name, cfg)
			if err != nil {
				return nil, err
			}
			if sc == 1.0 {
				baseE = res.OnChipPJ()
				baseC = float64(res.Cycles)
			}
			rows = append(rows, LeaseRow{
				Benchmark: name,
				Scale:     sc,
				Cycles:    res.Cycles,
				Grants:    res.Stats.Get("l1x.grants_read") + res.Stats.Get("l1x.grants_write"),
			})
		}
		// Normalize after the scale=1.0 baseline is known.
		for i := len(rows) - len(scales); i < len(rows); i++ {
			rows[i].EnergyNorm = mustEnergy(r, name, rows[i].Scale) / baseE
			rows[i].CycleNorm = float64(rows[i].Cycles) / baseC
		}
	}
	return rows, nil
}

func mustEnergy(r *Runner, name string, scale float64) float64 {
	cfg := systems.DefaultConfig(systems.Fusion)
	cfg.LeaseScale = scale
	res, err := r.Run(name, cfg) // memoized
	if err != nil {
		return 0
	}
	return res.OnChipPJ()
}

// DMARow is one point of the DMA-depth sensitivity sweep.
type DMARow struct {
	Benchmark string
	Depth     int
	Cycles    uint64
	// FusionAdvantage is FUSION's speedup over this SCRATCH variant.
	FusionAdvantage float64
}

// AblateDMADepth varies the oracle DMA engine's transfer pipelining. The
// paper's conclusions rest on a serial controller state machine; this
// sweep shows how much of FUSION's advantage an increasingly idealized DMA
// erodes.
func (r *Runner) AblateDMADepth() ([]DMARow, error) {
	var rows []DMARow
	for _, name := range []string{"fft", "disp", "hist"} {
		fu, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, err
		}
		for _, depth := range []int{1, 2, 4, 8} {
			cfg := systems.DefaultConfig(systems.Scratch)
			cfg.DMAOutstanding = depth
			if depth > 1 {
				cfg.DMAGap = 4
			}
			res, err := r.Run(name, cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, DMARow{
				Benchmark:       name,
				Depth:           depth,
				Cycles:          res.Cycles,
				FusionAdvantage: float64(res.Cycles) / float64(fu.Cycles),
			})
		}
	}
	return rows, nil
}

// TilesRow compares collocated vs split accelerator placement.
type TilesRow struct {
	Benchmark  string
	Tiles      int
	Cycles     uint64
	EnergyNorm float64 // vs single tile
	CycleNorm  float64
	HostMsgs   int64 // tile <-> L2 messages (both tiles)
}

// AblateTiles quantifies the paper's collocation assumption ("we assume
// all accelerators derived from an application are collocated on the same
// accelerator tile"): splitting a pipeline across tiles pushes every
// producer-consumer handoff through host MESI.
func (r *Runner) AblateTiles() ([]TilesRow, error) {
	var rows []TilesRow
	for _, name := range []string{"fft", "adpcm", "susan"} {
		var baseE, baseC float64
		for _, tiles := range []int{1, 2} {
			cfg := systems.DefaultConfig(systems.Fusion)
			cfg.Tiles = tiles
			res, err := r.Run(name, cfg)
			if err != nil {
				return nil, err
			}
			if tiles == 1 {
				baseE = res.OnChipPJ()
				baseC = float64(res.Cycles)
			}
			rows = append(rows, TilesRow{
				Benchmark:  name,
				Tiles:      tiles,
				Cycles:     res.Cycles,
				EnergyNorm: res.OnChipPJ() / baseE,
				CycleNorm:  float64(res.Cycles) / baseC,
				HostMsgs: res.Stats.Get("hostlink.tile.msgs") +
					res.Stats.Get("hostlink.tile1.msgs"),
			})
		}
	}
	return rows, nil
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
