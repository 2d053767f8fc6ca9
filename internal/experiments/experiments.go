// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). One table (artifacts, in print.go) names each
// artifact with the runs it reads, a data-producing function (used by
// tests and benchmarks) and a renderer that emits the same rows or series
// the paper reports.
//
// Absolute numbers differ from the paper — the substrate is this
// repository's simulator, not the authors' macsim/GEMS testbed — but the
// shapes the paper argues from (who wins, by roughly what factor, where the
// crossovers fall) are asserted by the test suite in shapes_test.go.
package experiments

import (
	"fmt"
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
	// workers bounds the Prefetch worker pool (<=0: GOMAXPROCS).
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

// RunSpec returns the memoized result of a serializable run spec — the
// entry point the fusiond daemon shares with the in-process experiment
// layer, so a daemon job and an artifact cell requesting the same spec
// coalesce onto one simulation.
func (r *Runner) RunSpec(s systems.Spec) (*systems.Result, error) {
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	return r.Run(s.Bench, cfg)
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

// Table1 computes the accelerator-characteristics table.
func (r *Runner) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, name := range workloads.Names() {
		b := r.bench(name)
		res, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, err
		}
		shr := b.Program.SharedLines()

		var totalAccelCycles uint64
		for _, fn := range perFunctionNames(res) {
			if pr := res.PerFunction[fn]; pr.AXC >= 0 {
				totalAccelCycles += pr.Cycles
			}
		}
		seen := map[string]bool{}
		for i := range b.Program.Phases {
			ph := &b.Program.Phases[i]
			if ph.Kind != trace.PhaseAccel || seen[ph.Inv.Function] {
				continue
			}
			seen[ph.Inv.Function] = true
			ii, fp, ld, st := ph.Inv.Ops()
			tot := float64(ii + fp + ld + st)
			pf := res.PerFunction[ph.Inv.Function]
			mlp := float64(res.Stats.Get(fmt.Sprintf("axc%d.mlp_milli", ph.Inv.AXC))) / 1000
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
	return rows, nil
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

// Table3 computes the execution-metrics table from the FUSION runs.
func (r *Runner) Table3() ([]Table3Row, []Table3Ratio, error) {
	var rows []Table3Row
	var ratios []Table3Ratio
	for _, name := range workloads.Names() {
		b := r.bench(name)
		res, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, nil, err
		}
		// Summing floats in sorted key order keeps the total bit-identical
		// across runs (map order would reorder the additions).
		var accelEnergy float64
		for _, fn := range perFunctionNames(res) {
			if pr := res.PerFunction[fn]; pr.AXC >= 0 {
				accelEnergy += pr.EnergyPJ
			}
		}
		seen := map[string]bool{}
		for i := range b.Program.Phases {
			ph := &b.Program.Phases[i]
			if ph.Kind != trace.PhaseAccel || seen[ph.Inv.Function] {
				continue
			}
			seen[ph.Inv.Function] = true
			pf := res.PerFunction[ph.Inv.Function]
			rows = append(rows, Table3Row{
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
		ratios = append(ratios, Table3Ratio{Benchmark: name, Ratio: ratio})
	}
	return rows, ratios, nil
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

// Figure6a computes the dynamic-energy breakdown.
func (r *Runner) Figure6a() ([]Fig6aRow, error) {
	var rows []Fig6aRow
	for _, name := range workloads.Names() {
		var base float64
		for _, kind := range SystemsCompared() {
			res, err := r.Run(name, systems.DefaultConfig(kind))
			if err != nil {
				return nil, err
			}
			e := res.Energy
			row := Fig6aRow{
				Benchmark: name,
				System:    kind.String(),
				Local:     e.Get(energy.CatL0X) + e.Get(energy.CatScratch),
				L1X:       e.Get(energy.CatL1X),
				TileNet:   e.Get(energy.CatLinkTile) + e.Get(energy.CatLinkFwd),
				HostNet:   e.Get(energy.CatLinkHost),
				L2:        e.Get(energy.CatL2),
				VM:        e.Get(energy.CatVM),
				Compute:   e.Get(energy.CatCompute),
			}
			if kind == systems.Scratch {
				base = res.OnChipPJ()
			}
			row.Normalized = res.OnChipPJ() / base
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig6bRow is one benchmark x system cycle count normalized to SCRATCH.
type Fig6bRow struct {
	Benchmark  string
	System     string
	Cycles     uint64
	DMACycles  uint64
	Normalized float64
}

// Figure6b computes the normalized cycle-time comparison.
func (r *Runner) Figure6b() ([]Fig6bRow, error) {
	var rows []Fig6bRow
	for _, name := range workloads.Names() {
		var base float64
		for _, kind := range SystemsCompared() {
			res, err := r.Run(name, systems.DefaultConfig(kind))
			if err != nil {
				return nil, err
			}
			if kind == systems.Scratch {
				base = float64(res.Cycles)
			}
			rows = append(rows, Fig6bRow{
				Benchmark:  name,
				System:     kind.String(),
				Cycles:     res.Cycles,
				DMACycles:  res.DMACycles,
				Normalized: float64(res.Cycles) / base,
			})
		}
	}
	return rows, nil
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
	// HostMsgs counts L1X/DMA <-> L2 messages.
	HostMsgs int64
	// HostFlits is the same traffic in 8-byte flits.
	HostFlits int64
}

// Figure6c computes the message-count comparison.
func (r *Runner) Figure6c() ([]Fig6cRow, error) {
	var rows []Fig6cRow
	for _, name := range workloads.Names() {
		for _, kind := range SystemsCompared() {
			res, err := r.Run(name, systems.DefaultConfig(kind))
			if err != nil {
				return nil, err
			}
			st := res.Stats
			row := Fig6cRow{Benchmark: name, System: kind.String()}
			switch kind {
			case systems.Scratch:
				row.HostMsgs = st.Get("hostlink.dma.msgs")
				row.HostFlits = st.Get("hostlink.dma.flits")
			case systems.Shared:
				row.TileReqs = st.Get("sharedswitch.msgs")
				row.TileData = st.Get("sharedswitch.msgs")
				row.HostMsgs = st.Get("hostlink.tile.msgs") + st.Get("hostlink.p2p.msgs")
				row.HostFlits = st.Get("hostlink.tile.flits") + st.Get("hostlink.p2p.flits")
			default:
				for i := 0; i < 8; i++ {
					row.TileReqs += st.Get(fmt.Sprintf("link.l0x%d.up.ctrl", i))
					row.TileData += st.Get(fmt.Sprintf("link.l0x%d.down.data", i))
				}
				row.HostMsgs = st.Get("hostlink.tile.msgs") + st.Get("hostlink.p2p.msgs")
				row.HostFlits = st.Get("hostlink.tile.flits") + st.Get("hostlink.p2p.flits")
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
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

// Figure6d computes the SCRATCH DMA-traffic table.
func (r *Runner) Figure6d() ([]Fig6dRow, error) {
	var rows []Fig6dRow
	for _, name := range workloads.Names() {
		res, err := r.Run(name, systems.DefaultConfig(systems.Scratch))
		if err != nil {
			return nil, err
		}
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
	return rows, nil
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

// Figure6e computes the all-systems comparison. Unlike Figures 6a-6c
// (which keep the paper's three-system layout), this artifact derives its
// column set from the systems registry, so a newly registered Kind shows
// up as a column automatically.
func (r *Runner) Figure6e() ([]Fig6eRow, error) {
	var rows []Fig6eRow
	for _, name := range workloads.Names() {
		base, err := r.Run(name, systems.DefaultConfig(systems.Scratch))
		if err != nil {
			return nil, err
		}
		baseCycles, basePJ := float64(base.Cycles), base.OnChipPJ()
		for _, kind := range systems.Kinds() {
			res, err := r.Run(name, systems.DefaultConfig(kind))
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig6eRow{
				Benchmark:  name,
				System:     kind.String(),
				Cycles:     res.Cycles,
				EnergyPJ:   res.OnChipPJ(),
				CycleNorm:  float64(res.Cycles) / baseCycles,
				EnergyNorm: res.OnChipPJ() / basePJ,
			})
		}
	}
	return rows, nil
}

// ------------------------------------------------------------------ Table 4

// Table4Row compares write-through and writeback L0X bandwidth (Table 4).
type Table4Row struct {
	Benchmark      string
	WriteThrough   int64 // flits on the L0X->L1X links
	Writeback      int64
	PctDirtyBlocks float64
}

// Table4 computes the write-policy bandwidth comparison on FUSION.
func (r *Runner) Table4() ([]Table4Row, error) {
	var rows []Table4Row
	for _, name := range workloads.Names() {
		wb, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, err
		}
		cfg := systems.DefaultConfig(systems.Fusion)
		cfg.WriteThrough = true
		wt, err := r.Run(name, cfg)
		if err != nil {
			return nil, err
		}
		upFlits := func(res *systems.Result) int64 {
			var n int64
			for i := 0; i < 8; i++ {
				n += res.Stats.Get(fmt.Sprintf("link.l0x%d.up.flits", i))
			}
			return n
		}
		// %dirty: distinct written lines over distinct touched lines.
		b := r.bench(name)
		touched, written := 0, 0
		seen := map[uint64]bool{}
		wr := map[uint64]bool{}
		for i := range b.Program.Phases {
			ph := &b.Program.Phases[i]
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
			WriteThrough:   upFlits(wt),
			Writeback:      upFlits(wb),
			PctDirtyBlocks: 100 * float64(written) / float64(touched),
		})
	}
	return rows, nil
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

// Table5 computes the write-forwarding comparison. The paper reports FFT
// and TRACK (the benchmarks with inter-AXC producer-consumer pairs); we
// compute all benchmarks that forward at least one block.
func (r *Runner) Table5() ([]Table5Row, error) {
	var rows []Table5Row
	for _, name := range workloads.Names() {
		fu, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, err
		}
		dx, err := r.Run(name, systems.DefaultConfig(systems.FusionDx))
		if err != nil {
			return nil, err
		}
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
	return rows, nil
}

// ----------------------------------------------------------------- Figure 7

// Fig7Row compares the AXC-Large configuration against the small baseline.
type Fig7Row struct {
	Benchmark string
	// LargeOverSmall ratios (>1 means the large configuration is worse).
	EnergyRatio float64
	CycleRatio  float64
}

// Figure7 computes the Large-vs-Small cache comparison on FUSION.
func (r *Runner) Figure7() ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, name := range workloads.Names() {
		small, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, err
		}
		cfg := systems.DefaultConfig(systems.Fusion)
		cfg.Large = true
		large, err := r.Run(name, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Benchmark:   name,
			EnergyRatio: large.OnChipPJ() / small.OnChipPJ(),
			CycleRatio:  float64(large.Cycles) / float64(small.Cycles),
		})
	}
	return rows, nil
}

// ------------------------------------------------------------------ Table 6

// Table6Row reports address-translation activity (Table 6), plus the
// forwarded-request counts Section 3.2 quotes ("up to ~800 forwarded
// requests from the CPU to the accelerator tile").
type Table6Row struct {
	Benchmark   string
	TLBLookups  int64
	RMAPLookups int64
	// HostFwds counts MESI requests the directory forwarded into the tile.
	HostFwds int64
}

// Table6 counts AX-TLB and AX-RMAP lookups on the FUSION runs.
func (r *Runner) Table6() ([]Table6Row, error) {
	var rows []Table6Row
	for _, name := range workloads.Names() {
		res, err := r.Run(name, systems.DefaultConfig(systems.Fusion))
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table6Row{
			Benchmark:   name,
			TLBLookups:  res.Stats.Get("axtlb.lookups"),
			RMAPLookups: res.Stats.Get("axrmap.lookups"),
			HostFwds:    res.Stats.Get("dir.fwd_to_tile"),
		})
	}
	return rows, nil
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
