// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each artifact is defined once, as a grid of runs
// (benchmarks × configs) plus a rows function that computes its typed rows
// from the grid's results; one table (artifacts, in print.go) names each
// definition with a renderer that emits the same rows or series the paper
// reports.
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator, not the authors' macsim/GEMS testbed — but the
// shapes the paper argues from (who wins, by roughly what factor, where the
// crossovers fall) are asserted by the test suite in shapes_test.go.
package experiments

import (
	"sort"
	"sync"
	"sync/atomic"

	"fusion/internal/energy"
	"fusion/internal/systems"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// runEntry is one memoized simulation, singleflight-style: the first
// caller of a key owns the execution; everyone else blocks on ready. This
// is what lets a bounded worker pool and ad-hoc concurrent Run callers
// share one Runner without ever simulating a cell twice.
type runEntry struct {
	ready chan struct{} // closed once res/err are final
	res   *systems.Result
	err   error
}

type benchEntry struct {
	ready chan struct{}
	b     *workloads.Benchmark
}

// NewRunner returns an empty experiment runner with GOMAXPROCS workers.
func NewRunner() *Runner {
	return &Runner{
		results: make(map[string]*runEntry),
		benches: make(map[string]*benchEntry),
	}
}

// Runner executes experiments, memoizing simulation runs. It is safe for
// concurrent use: every cached cell runs exactly once (singleflight) no
// matter how many goroutines ask for it, and report assembly walks cells
// in a fixed order, so output is byte-identical for any worker count.
type Runner struct {
	// workers bounds the sweep worker pool (<=0: GOMAXPROCS).
	workers int

	mu      sync.Mutex
	results map[string]*runEntry   //guard: mu
	benches map[string]*benchEntry //guard: mu

	// simRuns counts actually-executed (non-memoized) simulations.
	simRuns atomic.Int64
}

// SetWorkers bounds the parallel sweep's worker pool: 1 forces sequential
// execution, <=0 restores the GOMAXPROCS default. The choice affects
// wall-clock time only, never the output.
func (r *Runner) SetWorkers(n int) { r.workers = n }

// SimRuns reports how many simulations the runner has actually executed
// (memoized hits excluded).
func (r *Runner) SimRuns() int64 { return r.simRuns.Load() }

func (r *Runner) bench(name string) *workloads.Benchmark {
	r.mu.Lock()
	e, ok := r.benches[name]
	if !ok {
		e = &benchEntry{ready: make(chan struct{})}
		r.benches[name] = e
		r.mu.Unlock()
		e.b = workloads.Get(name)
		close(e.ready)
		return e.b
	}
	r.mu.Unlock()
	<-e.ready
	return e.b
}

// runKey canonicalizes a cell as its serializable run spec's canonical
// key (see systems.Spec): every knob that can change the result is part of
// the key, so two configs memoize together exactly when they describe the
// same run. The fusiond daemon keys its on-disk result cache on the same
// canonicalization (hashed), so a memoized cell here and a cached cell
// there name the same bytes.
func runKey(name string, cfg systems.Config) string {
	return systems.SpecOf(name, cfg).Key()
}

// Run returns the memoized result of benchmark `name` under cfg, executing
// the simulation on first request. Concurrent callers of the same cell
// share one execution. Failures carry the originating cell's short label
// ("bench/system") as a *systems.SweepError wrapping the underlying error.
func (r *Runner) Run(name string, cfg systems.Config) (*systems.Result, error) {
	key := runKey(name, cfg)
	r.mu.Lock()
	e, ok := r.results[key]
	if !ok {
		e = &runEntry{ready: make(chan struct{})}
		r.results[key] = e
		r.mu.Unlock()
		res, err := systems.Run(r.bench(name), cfg)
		r.simRuns.Add(1)
		if err != nil {
			e.err = &systems.SweepError{Key: systems.SpecOf(name, cfg).Label(), Err: err}
		} else {
			e.res = res
		}
		close(e.ready)
		return e.res, e.err
	}
	r.mu.Unlock()
	<-e.ready
	return e.res, e.err
}

// ------------------------------------------------------------------ Table 1

// Table1Row characterizes one accelerated function (Table 1).
type Table1Row struct {
	Benchmark string
	Function  string
	PctTime   float64 // share of the benchmark's accelerator cycles
	PctInt    float64
	PctFP     float64
	PctLd     float64
	PctSt     float64
	MLP       float64 // emergent MLP measured on the FUSION run
	PctShr    float64 // sharing degree
}

var table1Def = def[[]Table1Row]{fusionGrid, table1Rows}

// Table1 computes the accelerator-characteristics table.
func (r *Runner) Table1() ([]Table1Row, error) { return table1Def.data(r) }

func table1Rows(rs results) []Table1Row {
	var rows []Table1Row
	for i, name := range rs.names {
		b, res := rs.benches[i], rs.run(i, 0)
		shr := b.Program.SharedLines()

		var totalAccelCycles uint64
		for _, fn := range perFunctionNames(res) {
			if pr := res.PerFunction[fn]; pr.AXC >= 0 {
				totalAccelCycles += pr.Cycles
			}
		}
		seen := map[string]bool{}
		for p := range b.Program.Phases {
			ph := &b.Program.Phases[p]
			if ph.Kind != trace.PhaseAccel || seen[ph.Inv.Function] {
				continue
			}
			seen[ph.Inv.Function] = true
			ii, fp, ld, st := ph.Inv.Ops()
			tot := float64(ii + fp + ld + st)
			pf := res.PerFunction[ph.Inv.Function]
			mlp := float64(res.AXCMLPMilli[ph.Inv.AXC]) / 1000
			rows = append(rows, Table1Row{
				Benchmark: name,
				Function:  ph.Inv.Function,
				PctTime:   100 * float64(pf.Cycles) / float64(totalAccelCycles),
				PctInt:    100 * float64(ii) / tot,
				PctFP:     100 * float64(fp) / tot,
				PctLd:     100 * float64(ld) / tot,
				PctSt:     100 * float64(st) / tot,
				MLP:       mlp,
				PctShr:    shr[ph.Inv.Function],
			})
		}
	}
	return rows
}

// ------------------------------------------------------------------ Table 3

// Table3Row reports per-function execution metrics (Table 3).
type Table3Row struct {
	Benchmark string
	Function  string
	KCycles   float64
	LeaseTime uint64
	PctEnergy float64 // share of the benchmark's accelerator-phase energy
}

// Table3Ratio is a benchmark's cache-to-compute energy ratio (the
// parenthesized number beside each benchmark name in Table 3).
type Table3Ratio struct {
	Benchmark string
	Ratio     float64
}

// table3Data is Table 3's row list plus its per-benchmark cache/compute
// ratios.
type table3Data struct {
	Rows   []Table3Row
	Ratios []Table3Ratio
}

var table3Def = def[table3Data]{fusionGrid, table3Rows}

// Table3 computes the execution-metrics table from the FUSION runs.
func (r *Runner) Table3() ([]Table3Row, []Table3Ratio, error) {
	d, err := table3Def.data(r)
	return d.Rows, d.Ratios, err
}

func table3Rows(rs results) table3Data {
	var d table3Data
	for i, name := range rs.names {
		b, res := rs.benches[i], rs.run(i, 0)
		// Summing floats in sorted key order keeps the total bit-identical
		// across runs (map order would reorder the additions).
		var accelEnergy float64
		for _, fn := range perFunctionNames(res) {
			if pr := res.PerFunction[fn]; pr.AXC >= 0 {
				accelEnergy += pr.EnergyPJ
			}
		}
		seen := map[string]bool{}
		for p := range b.Program.Phases {
			ph := &b.Program.Phases[p]
			if ph.Kind != trace.PhaseAccel || seen[ph.Inv.Function] {
				continue
			}
			seen[ph.Inv.Function] = true
			pf := res.PerFunction[ph.Inv.Function]
			d.Rows = append(d.Rows, Table3Row{
				Benchmark: name,
				Function:  ph.Inv.Function,
				KCycles:   float64(pf.Cycles) / 1000,
				LeaseTime: b.LeaseTimes[ph.Inv.Function],
				PctEnergy: 100 * pf.EnergyPJ / accelEnergy,
			})
		}
		cachePJ := res.Energy.Get(energy.CatL0X) + res.Energy.Get(energy.CatL1X)
		computePJ := res.Energy.Get(energy.CatCompute)
		ratio := 0.0
		if computePJ > 0 {
			ratio = cachePJ / computePJ
		}
		d.Ratios = append(d.Ratios, Table3Ratio{Benchmark: name, Ratio: ratio})
	}
	return d
}

// ------------------------------------------------------------- Figure 6a/6b

// SystemsCompared lists the systems of Figures 6a-6c in the paper's order.
func SystemsCompared() []systems.Kind {
	return []systems.Kind{systems.Scratch, systems.Shared, systems.Fusion}
}

// Fig6aRow is the stacked energy breakdown of one benchmark x system,
// normalized to the benchmark's SCRATCH total.
type Fig6aRow struct {
	Benchmark string
	System    string
	// Components in picojoules.
	Local   float64 // L0X or scratchpad accesses
	L1X     float64 // shared L1X accesses
	TileNet float64 // AXC<->L1X link (+ L0X<->L0X forwards)
	HostNet float64 // L1X/DMA <-> L2 link
	L2      float64
	VM      float64 // TLBs + RMAP
	Compute float64
	// Normalized is the on-chip total relative to SCRATCH.
	Normalized float64
}

var fig6aDef = def[[]Fig6aRow]{comparedGrid, fig6aRows}

// Figure6a computes the dynamic-energy breakdown.
func (r *Runner) Figure6a() ([]Fig6aRow, error) { return fig6aDef.data(r) }

func fig6aRows(rs results) []Fig6aRow {
	var rows []Fig6aRow
	for i, name := range rs.names {
		base := rs.run(i, 0).OnChipPJ() // SCRATCH
		for j := range rs.cfgs {
			res := rs.run(i, j)
			e := res.Energy
			rows = append(rows, Fig6aRow{
				Benchmark:  name,
				System:     res.System,
				Local:      e.Get(energy.CatL0X) + e.Get(energy.CatScratch),
				L1X:        e.Get(energy.CatL1X),
				TileNet:    e.Get(energy.CatLinkTile) + e.Get(energy.CatLinkFwd),
				HostNet:    e.Get(energy.CatLinkHost),
				L2:         e.Get(energy.CatL2),
				VM:         e.Get(energy.CatVM),
				Compute:    e.Get(energy.CatCompute),
				Normalized: res.OnChipPJ() / base,
			})
		}
	}
	return rows
}

// Fig6bRow is one benchmark x system cycle count normalized to SCRATCH.
type Fig6bRow struct {
	Benchmark  string
	System     string
	Cycles     uint64
	DMACycles  uint64
	Normalized float64
}

var fig6bDef = def[[]Fig6bRow]{comparedGrid, fig6bRows}

// Figure6b computes the normalized cycle-time comparison.
func (r *Runner) Figure6b() ([]Fig6bRow, error) { return fig6bDef.data(r) }

func fig6bRows(rs results) []Fig6bRow {
	var rows []Fig6bRow
	for i, name := range rs.names {
		base := float64(rs.run(i, 0).Cycles) // SCRATCH
		for j := range rs.cfgs {
			res := rs.run(i, j)
			rows = append(rows, Fig6bRow{
				Benchmark:  name,
				System:     res.System,
				Cycles:     res.Cycles,
				DMACycles:  res.DMACycles,
				Normalized: float64(res.Cycles) / base,
			})
		}
	}
	return rows
}

// ---------------------------------------------------------------- Figure 6c

// Fig6cRow is the link-traffic breakdown of one benchmark x system.
type Fig6cRow struct {
	Benchmark string
	System    string
	// TileReqs counts AXC->L1X request messages (L0X->L1X MSG in the
	// paper's legend; for SHARED, every access crosses the switch).
	TileReqs int64
	// TileData counts L1X->AXC data responses.
	TileData int64
	// HostMsgs counts the host-fabric messages: the DMA engine's route to
	// the L2 for SCRATCH; otherwise the tile's route to the L2 plus the
	// owner->requester data responses between agents.
	HostMsgs int64
	// HostFlits is the same traffic in 8-byte flits.
	HostFlits int64
}

var fig6cDef = def[[]Fig6cRow]{comparedGrid, fig6cRows}

// Figure6c computes the message-count comparison.
func (r *Runner) Figure6c() ([]Fig6cRow, error) { return fig6cDef.data(r) }

func fig6cRows(rs results) []Fig6cRow {
	var rows []Fig6cRow
	for i, name := range rs.names {
		for j, cfg := range rs.cfgs {
			res := rs.run(i, j)
			row := Fig6cRow{Benchmark: name, System: res.System}
			host := res.HostTiles.Add(res.HostP2P)
			switch kind, _ := systems.ParseKind(cfg.System); kind {
			case systems.Scratch:
				host = res.HostDMA
			case systems.Shared:
				row.TileReqs, row.TileData = res.SharedSwitchMsgs, res.SharedSwitchMsgs
			default:
				row.TileReqs, row.TileData = res.TileUp.Ctrl, res.TileDown.Data
			}
			row.HostMsgs, row.HostFlits = host.Msgs, host.Flits
			rows = append(rows, row)
		}
	}
	return rows
}

// ---------------------------------------------------------------- Figure 6d

// Fig6dRow is the working-set/DMA-traffic table embedded in Figure 6.
type Fig6dRow struct {
	Benchmark    string
	WSetKB       float64
	DMAKB        float64
	DMATransfers int64
	Ratio        float64 // DMA bytes / working set (165x for FFT in the paper)
}

var fig6dDef = def[[]Fig6dRow]{grid{workloads.Names(), defaults(systems.Scratch)}, fig6dRows}

// Figure6d computes the SCRATCH DMA-traffic table.
func (r *Runner) Figure6d() ([]Fig6dRow, error) { return fig6dDef.data(r) }

func fig6dRows(rs results) []Fig6dRow {
	var rows []Fig6dRow
	for i, name := range rs.names {
		res := rs.run(i, 0)
		ws := float64(res.WorkingSetBytes) / 1024
		dma := float64(res.DMABytes) / 1024
		rows = append(rows, Fig6dRow{
			Benchmark:    name,
			WSetKB:       ws,
			DMAKB:        dma,
			DMATransfers: res.DMATransfers,
			Ratio:        dma / ws,
		})
	}
	return rows
}

// ---------------------------------------------------------------- Figure 6e

// Fig6eRow extends the Figure 6a/6b comparison to every registered system,
// ADAPTIVE and HYDRA included: one benchmark x system, with cycles and
// on-chip energy normalized to the benchmark's SCRATCH run.
type Fig6eRow struct {
	Benchmark  string
	System     string
	Cycles     uint64
	EnergyPJ   float64
	CycleNorm  float64
	EnergyNorm float64
}

// Unlike Figures 6a-6c (which keep the paper's three-system layout),
// Figure 6e derives its column set from the systems registry, so a newly
// registered Kind shows up as a column automatically. SCRATCH, the
// baseline, is the first.
var fig6eDef = def[[]Fig6eRow]{grid{workloads.Names(), defaults(systems.Kinds()...)}, fig6eRows}

// Figure6e computes the all-systems comparison.
func (r *Runner) Figure6e() ([]Fig6eRow, error) { return fig6eDef.data(r) }

func fig6eRows(rs results) []Fig6eRow {
	var rows []Fig6eRow
	for i, name := range rs.names {
		base := rs.run(i, 0) // SCRATCH
		baseCycles, basePJ := float64(base.Cycles), base.OnChipPJ()
		for j := range rs.cfgs {
			res := rs.run(i, j)
			rows = append(rows, Fig6eRow{
				Benchmark:  name,
				System:     res.System,
				Cycles:     res.Cycles,
				EnergyPJ:   res.OnChipPJ(),
				CycleNorm:  float64(res.Cycles) / baseCycles,
				EnergyNorm: res.OnChipPJ() / basePJ,
			})
		}
	}
	return rows
}

// ------------------------------------------------------------------ Table 4

// Table4Row compares write-through and writeback L0X bandwidth (Table 4).
type Table4Row struct {
	Benchmark      string
	WriteThrough   int64 // flits on the L0X->L1X links
	Writeback      int64
	PctDirtyBlocks float64
}

var table4Def = def[[]Table4Row]{
	grid{workloads.Names(), sweep(systems.Fusion,
		func(c *systems.Config, wt bool) { c.WriteThrough = wt }, false, true)},
	table4Rows,
}

// Table4 computes the write-policy bandwidth comparison on FUSION.
func (r *Runner) Table4() ([]Table4Row, error) { return table4Def.data(r) }

func table4Rows(rs results) []Table4Row {
	var rows []Table4Row
	for i, name := range rs.names {
		b, wb, wt := rs.benches[i], rs.run(i, 0), rs.run(i, 1)
		// %dirty: distinct written lines over distinct touched lines.
		touched, written := 0, 0
		seen := map[uint64]bool{}
		wr := map[uint64]bool{}
		for p := range b.Program.Phases {
			ph := &b.Program.Phases[p]
			if ph.Kind != trace.PhaseAccel {
				continue
			}
			lines, w := ph.Inv.Lines()
			for _, l := range lines {
				if !seen[uint64(l)] {
					seen[uint64(l)] = true
					touched++
				}
				if w[l] && !wr[uint64(l)] {
					wr[uint64(l)] = true
					written++
				}
			}
		}
		rows = append(rows, Table4Row{
			Benchmark:      name,
			WriteThrough:   wt.TileUp.Flits,
			Writeback:      wb.TileUp.Flits,
			PctDirtyBlocks: 100 * float64(written) / float64(touched),
		})
	}
	return rows
}

// ------------------------------------------------------------------ Table 5

// Table5Row reports FUSION-Dx forwarding effectiveness (Table 5).
type Table5Row struct {
	Benchmark       string
	ForwardedBlocks int64
	// PctCacheSaved is the reduction in AXC cache (L0X+L1X) energy vs FUSION.
	PctCacheSaved float64
	// PctLinkSaved is the reduction in intra-tile link energy vs FUSION.
	PctLinkSaved float64
}

var table5Def = def[[]Table5Row]{
	grid{workloads.Names(), defaults(systems.Fusion, systems.FusionDx)},
	table5Rows,
}

// Table5 computes the write-forwarding comparison. The paper reports FFT
// and TRACK (the benchmarks with inter-AXC producer-consumer pairs); we
// compute all benchmarks that forward at least one block.
func (r *Runner) Table5() ([]Table5Row, error) { return table5Def.data(r) }

func table5Rows(rs results) []Table5Row {
	var rows []Table5Row
	for i, name := range rs.names {
		fu, dx := rs.run(i, 0), rs.run(i, 1)
		if dx.ForwardedBlocks == 0 {
			continue
		}
		cacheOf := func(res *systems.Result) float64 {
			return res.Energy.Get(energy.CatL0X) + res.Energy.Get(energy.CatL1X)
		}
		linkOf := func(res *systems.Result) float64 {
			return res.Energy.Get(energy.CatLinkTile) + res.Energy.Get(energy.CatLinkFwd)
		}
		rows = append(rows, Table5Row{
			Benchmark:       name,
			ForwardedBlocks: dx.ForwardedBlocks,
			PctCacheSaved:   100 * (1 - cacheOf(dx)/cacheOf(fu)),
			PctLinkSaved:    100 * (1 - linkOf(dx)/linkOf(fu)),
		})
	}
	return rows
}

// ----------------------------------------------------------------- Figure 7

// Fig7Row compares the AXC-Large configuration against the small baseline.
type Fig7Row struct {
	Benchmark string
	// LargeOverSmall ratios (>1 means the large configuration is worse).
	EnergyRatio float64
	CycleRatio  float64
}

var fig7Def = def[[]Fig7Row]{
	grid{workloads.Names(), sweep(systems.Fusion,
		func(c *systems.Config, large bool) { c.Large = large }, false, true)},
	fig7Rows,
}

// Figure7 computes the Large-vs-Small cache comparison on FUSION.
func (r *Runner) Figure7() ([]Fig7Row, error) { return fig7Def.data(r) }

func fig7Rows(rs results) []Fig7Row {
	var rows []Fig7Row
	for i, name := range rs.names {
		small, large := rs.run(i, 0), rs.run(i, 1)
		rows = append(rows, Fig7Row{
			Benchmark:   name,
			EnergyRatio: large.OnChipPJ() / small.OnChipPJ(),
			CycleRatio:  float64(large.Cycles) / float64(small.Cycles),
		})
	}
	return rows
}

// ------------------------------------------------------------------ Table 6

// Table6Row reports address-translation activity (Table 6), plus the
// forwarded-request counts Section 3.2 quotes ("up to ~800 forwarded
// requests from the CPU to the accelerator tile").
type Table6Row struct {
	Benchmark   string
	TLBLookups  int64
	RMAPLookups int64
	// HostFwds counts MESI requests the directory forwarded into the tiles.
	HostFwds int64
}

var table6Def = def[[]Table6Row]{fusionGrid, table6Rows}

// Table6 counts AX-TLB and AX-RMAP lookups on the FUSION runs.
func (r *Runner) Table6() ([]Table6Row, error) { return table6Def.data(r) }

func table6Rows(rs results) []Table6Row {
	var rows []Table6Row
	for i, name := range rs.names {
		res := rs.run(i, 0)
		rows = append(rows, Table6Row{
			Benchmark:   name,
			TLBLookups:  res.TLBLookups,
			RMAPLookups: res.RMAPLookups,
			HostFwds:    res.DirFwdsToTile,
		})
	}
	return rows
}

// perFunctionNames returns a result's per-function keys in sorted order, so
// aggregations over the map are iteration-order independent.
func perFunctionNames(res *systems.Result) []string {
	names := make([]string, 0, len(res.PerFunction))
	for fn := range res.PerFunction {
		names = append(names, fn)
	}
	sort.Strings(names)
	return names
}
