package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path"
	"sort"
	"time"

	"fusion/bench/golden"
	"fusion/internal/mem"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// randomPrograms is how many seeded random programs join the seven paper
// benchmarks in each *-cells pass.
const randomPrograms = 8

// randomParams bounds the random programs (the fuzzers' defaults: mid-sized
// programs that run in milliseconds).
var randomParams = workloads.DefaultRandomParams()

// cellsSpec is one *-cells workload: every program on every configuration.
type cellsSpec struct {
	kinds []systems.Kind
	large []bool
	// benches and random override the program mix (tests use a small one).
	benches []string
	random  int
}

func fusionCellsSpec() cellsSpec {
	return cellsSpec{kinds: []systems.Kind{systems.Fusion, systems.FusionDx, systems.Hydra, systems.Adaptive},
		large: []bool{false}, benches: workloads.Names(), random: randomPrograms}
}

func scratchCellsSpec() cellsSpec {
	return cellsSpec{kinds: []systems.Kind{systems.Scratch},
		large: []bool{false, true}, benches: workloads.Names(), random: randomPrograms}
}

// fusionCells loads the lease path: the accelerator datapath, the event
// kernel, the cache arrays and the L0X/L1X controllers.
func fusionCells() workload { return cellsWorkload("fusion-cells", fusionCellsSpec()) }

// scratchCells loads the DMA path instead: the DMA engine, window planning,
// the directory and DRAM, with no lease path, so a datapath or lease-path
// change must leave it unchanged. The two scratchpad sizes vary the
// working set against the scratchpad's capacity.
func scratchCells() workload { return cellsWorkload("scratch-cells", scratchCellsSpec()) }

func cellsWorkload(name string, spec cellsSpec) workload {
	return workload{
		name: name, minPasses: 3, opClasses: []string{"paper"},
		setup: func(o options, tr *tracer, parent int) (instance, error) {
			return setupCells(spec, o.seed, tr, parent)
		},
	}
}

// program is one generated input with its golden final memory image.
type program struct {
	label string
	bench *workloads.Benchmark
	want  map[mem.VAddr]uint64
	paper bool
}

// cell is one program on one configuration.
type cell struct {
	label string
	prog  *program
	cfg   systems.Config
	// digest is the result digest of the first pass; every later pass and,
	// for paper cells, the committed golden must match it.
	digest string
}

type cellsInstance struct {
	cells   []*cell
	goldens map[string]string
	// num and den accumulate simCounts over the first pass.
	num, den []float64
}

// setupCells generates the programs and their golden images: the paper
// benchmarks and randomPrograms programs seeded from seed.
func setupCells(spec cellsSpec, seed int64, tr *tracer, parent int) (*cellsInstance, error) {
	goldens, err := golden.Cells()
	if err != nil {
		return nil, err
	}
	var progs []*program
	gen := func(label string, paper bool, build func() *workloads.Benchmark) {
		s := tr.begin("workloads.gen", parent)
		b := build()
		tr.end(s)
		s = tr.begin("systems.golden", parent)
		want := systems.ExpectedVersions(b)
		tr.end(s)
		progs = append(progs, &program{label: label, bench: b, want: want, paper: paper})
	}
	for _, name := range spec.benches {
		gen(name, true, func() *workloads.Benchmark { return workloads.Get(name) })
	}
	for i := 0; i < spec.random; i++ {
		s := seed*1000 + int64(i)
		gen(fmt.Sprintf("random-%d", s), false, func() *workloads.Benchmark { return workloads.Random(s, randomParams) })
	}
	inst := &cellsInstance{goldens: goldens}
	for _, p := range progs {
		for _, k := range spec.kinds {
			for _, large := range spec.large {
				cfg := systems.DefaultConfig(k)
				cfg.Large = large
				inst.cells = append(inst.cells, &cell{label: cellLabel(p.label, cfg), prog: p, cfg: cfg})
			}
		}
	}
	return inst, nil
}

// cellLabel names a cell "bench/system", with "/large" for the AXC-Large
// configuration.
func cellLabel(bench string, cfg systems.Config) string {
	l := systems.SpecOf(bench, cfg).Label()
	if cfg.Large {
		l += "/large"
	}
	return l
}

func (c *cellsInstance) more(int) bool { return true }
func (c *cellsInstance) close() error  { return nil }

func (c *cellsInstance) pass(p *passCtx) {
	for _, cl := range c.cells {
		p.split()
		cs := p.tr.begin("cell", p.span)
		rs := p.tr.begin("systems.run", cs)
		t0 := time.Now()
		res, err := systems.RunCtx(context.Background(), cl.prog.bench, cl.cfg)
		dt := time.Since(t0)
		p.tr.end(rs)
		class := "random"
		if cl.prog.paper {
			class = "paper"
		}
		p.rec.op(class, dt)
		if err != nil {
			p.rec.fail("%s: %v", cl.label, err)
			p.tr.end(cs)
			continue
		}
		vs := p.tr.begin("systems.verify", cs)
		c.verify(p, cl, res)
		p.tr.end(vs)
		p.tr.end(cs)
		p.rec.simulated(res.Cycles, dt)
		if p.index == 0 {
			c.addCounts(res)
		}
	}
}

// verify checks a cell's final memory image against sequential semantics
// and its result digest against the first pass and the committed golden.
func (c *cellsInstance) verify(p *passCtx, cl *cell, res *systems.Result) {
	// Every golden line must hold its version; any other line the program
	// touched was only ever read, so it must still be at version 0.
	bad := 0
	for a, v := range cl.prog.want {
		if res.FinalVersions[a] != v {
			bad++
		}
	}
	for a, v := range res.FinalVersions {
		if _, ok := cl.prog.want[a]; !ok && v != 0 {
			bad++
		}
	}
	if bad > 0 {
		p.rec.fail("%s: %d lines differ from sequential semantics", cl.label, bad)
		return
	}
	d := resultDigest(res)
	switch {
	case cl.digest == "":
		cl.digest = d
	case d != cl.digest:
		p.rec.fail("%s: result digest changed between passes", cl.label)
		return
	}
	if want, ok := c.goldens[cl.label]; cl.prog.paper && (!ok || want != d) {
		p.rec.fail("%s: result digest %.12s differs from golden %.12s", cl.label, d, want)
	}
}

// resultDigest is the SHA-256 of everything a run measured: cycles, DMA
// cycles, energy, every counter and the final memory image, in a canonical
// order.
func resultDigest(res *systems.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d dma=%d energy=%x\n", res.Cycles, res.DMACycles, math.Float64bits(res.Energy.Total()))
	names := append([]string(nil), res.Stats.Names()...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s=%d\n", n, res.Stats.Get(n))
	}
	addrs := make([]mem.VAddr, 0, len(res.FinalVersions))
	for a := range res.FinalVersions {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var buf [16]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(a))
		binary.LittleEndian.PutUint64(buf[8:], res.FinalVersions[a])
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simCount is one simulated count summed over a pass: a total or, when den
// is set, the ratio of two totals.
type simCount struct {
	name, unit string
	num, den   func(res *systems.Result) float64
}

// counters sums the counters whose names match any of the patterns
// (path.Match syntax).
func counters(patterns ...string) func(*systems.Result) float64 {
	return func(res *systems.Result) float64 {
		var total float64
		res.Stats.ForEach(func(name string, v int64) {
			for _, p := range patterns {
				if ok, _ := path.Match(p, name); ok {
					total += float64(v)
					return
				}
			}
		})
		return total
	}
}

// simCounts are the simulated counts a speed-only change leaves identical.
var simCounts = []simCount{
	{"sim.cycles", "count", func(r *systems.Result) float64 { return float64(r.Cycles) }, nil},
	{"accel.ops", "count", counters("axc*.int_ops", "axc*.fp_ops", "axc*.loads", "axc*.stores"), nil},
	{"acc.l0x_hit_ratio", "ratio", counters("*l0x.*.hits"), counters("*l0x.*.hits", "*l0x.*.misses")},
	{"acc.l1x_miss_ratio", "ratio", counters("*l1x.misses"), counters("*l1x.accesses")},
	{"acc.self_invalidations", "count", counters("*l0x.*.self_invalidations"), nil},
	{"acc.fwd_blocks", "count", func(r *systems.Result) float64 { return float64(r.ForwardedBlocks) }, nil},
	{"mesi.dir_requests", "count", counters("dir.[A-Z]*"), nil},
	{"mesi.l2_hit_ratio", "ratio", counters("l2.hits"), counters("l2.accesses")},
	{"interconnect.link_kb", "KiB", func(r *systems.Result) float64 { return counters("*link.*.bytes")(r) / 1024 }, nil},
	{"dram.accesses", "count", counters("dram.reads", "dram.writes"), nil},
	{"dram.row_hit_ratio", "ratio", counters("dram.row_hit"), counters("dram.row_hit", "dram.row_miss")},
	{"vm.axtlb_lookups", "count", counters("*axtlb.lookups"), nil},
	{"vm.axtlb_hit_ratio", "ratio", counters("*axtlb.hits"), counters("*axtlb.lookups")},
	{"scratchpad.dma_transfers", "count", func(r *systems.Result) float64 { return float64(r.DMATransfers) }, nil},
	{"host.committed", "count", counters("hostcore.committed"), nil},
}

// addCounts folds one result into the pass's simulated counts.
func (c *cellsInstance) addCounts(res *systems.Result) {
	if c.num == nil {
		c.num = make([]float64, len(simCounts))
		c.den = make([]float64, len(simCounts))
	}
	for i, sc := range simCounts {
		c.num[i] += sc.num(res)
		if sc.den != nil {
			c.den[i] += sc.den(res)
		}
	}
}

func (c *cellsInstance) extras(rec *recorder) (map[string]metric, error) {
	out := map[string]metric{}
	paper := rec.latencies("paper")
	for _, q := range []float64{50, 95} {
		if v, ok := percentile(paper, q); ok {
			out[fmt.Sprintf("cell_ms_p%.0f", q)] = metric{Value: v, Unit: "ms", Better: "lower", N: len(paper)}
		}
	}
	rec.simRate(out)
	if c.num != nil {
		for i, sc := range simCounts {
			v := c.num[i]
			if sc.den != nil {
				v = 0
				if c.den[i] > 0 {
					v = c.num[i] / c.den[i]
				}
			}
			out[sc.name] = metric{Value: v, Unit: sc.unit, Better: "equal"}
		}
	}
	return out, nil
}
