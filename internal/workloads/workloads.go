// Package workloads generates the seven benchmarks of the paper's
// evaluation (SD-VBS: Disparity, Tracking, Susan, Filter, Histogram;
// MachSuite: FFT, ADPCM) as synthetic, calibrated traces.
//
// We do not have the benchmark binaries or the authors' gprof/trace
// toolchain, so each accelerated function is regenerated from its published
// characteristics:
//
//   - operation mix %INT/%FP/%LD/%ST and memory-level parallelism (Table 1),
//   - lease times LT (Table 3),
//   - pipeline structure — which function produces what the next consumes —
//     giving the %SHR sharing degrees of Table 1,
//   - working-set sizes chosen to preserve every capacity relation the
//     evaluation turns on: ADPCM/SUSAN/FILT under 30 KB (scratch-friendly),
//     FFT small but heavily re-streamed (the 165x DMA-to-working-set ratio),
//     DISP between the 64 KB and 256 KB L1X sizes, TRACK and HIST beyond
//     both (HIST's 1191 KB footprint is represented at 512 KB — the same
//     side of every cache-size threshold, Section 5.5).
//
// The cache hierarchy observes only the address/op stream, so a stream with
// matching locality, sharing, and intensity statistics exercises the same
// protocol and energy code paths as the original traces.
package workloads

import (
	"math"
	"math/rand"
	"slices"
	"sync"

	"fusion/internal/flat"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/trace"
)

// opMix is the operation breakdown of one function (percentages, Table 1).
type opMix struct {
	Int, FP, Ld, St float64
}

// region is a named array in the benchmark's address space.
type region struct {
	name string
	base mem.VAddr
	size int
}

// pattern selects the address-generation behaviour of a stream.
type pattern uint8

const (
	patSeq     pattern = iota // streaming, word after word
	patStencil                // streaming with neighbour re-reads
	patRandom                 // uniform random words (histogram table)
	// patBlocked sweeps the region in 2 KB blocks, re-reading each block
	// several times before advancing. The reuse fits a 4 KB scratchpad or
	// L0X but makes the SHARED design pay its higher load-to-use cost on
	// every touch — the locality structure behind Lessons 1-2.
	patBlocked
)

// blockedBytes and blockedReuse parameterize patBlocked.
const (
	blockedBytes = 2048
	blockedReuse = 4
)

// fnSpec declares one accelerated function.
type fnSpec struct {
	name       string
	axc        int
	mix        opMix
	mlp        int
	lt         uint64 // ACC lease time, Table 3
	reads      []strm // input streams
	writes     []strm // output streams
	opsPerIter int    // total ops per iteration (iteration granularity)
	// serial marks a loop-carried dependence chain (Table 1 MLP near 1).
	serial bool
}

// strm is one access stream over a region.
type strm struct {
	reg     string
	passes  int // how many full sweeps of the region
	pattern pattern
	stride  int // bytes between consecutive accesses (0 = 16)
	reuse   int // patBlocked: sweeps per block (0 = blockedReuse default)
	// reverse walks the region from high addresses to low. Pipeline stages
	// that alternate direction (FFT's bit-reversal stages, image passes)
	// make a consumer's first reads the producer's last writes — the
	// producer-consumer adjacency FUSION-Dx forwarding exploits (Figure 5).
	reverse bool
}

// benchSpec declares one benchmark.
type benchSpec struct {
	name    string
	regions []region
	// inputs are preloaded into the host LLC (the host wrote them before
	// offload); outputs are read back by a final host phase.
	inputs  []string
	outputs []string
	fns     []fnSpec
	// repeat: the whole function pipeline runs this many times (the
	// "invoked repeatedly" behaviour that drives FFT's DMA ratio).
	repeat int
	// hostTail, when set, appends a host phase reading the outputs
	// (step3() of Figure 1).
	hostTail bool
}

// Names lists the benchmarks in the paper's presentation order.
func Names() []string {
	return []string{"fft", "disp", "track", "adpcm", "susan", "filt", "hist"}
}

// kb is a size helper.
func kb(n int) int { return n << 10 }

// specs returns the full benchmark table, built once; callers only read
// it. Region sizes are simulation-scale (see the package comment); op
// mixes, MLP, and LT come straight from Tables 1 and 3.
var specs = sync.OnceValue(func() map[string]benchSpec {
	m := make(map[string]benchSpec)

	// FFT (MachSuite): 6 butterfly stages over a small array, run
	// repeatedly; every stage reads and writes the same data -> extreme
	// DMA re-transfer in SCRATCH (ratio ~165) and high %SHR.
	m["fft"] = benchSpec{
		name: "fft",
		regions: []region{
			{name: "re", size: kb(8)},
			{name: "im", size: kb(8)},
			// Per-stage private temporaries reproduce Table 1's sharing
			// spread: stages with private scratch data (step1/3/6) sit near
			// 50-60%% SHR, pure butterfly stages near 100%%.
			{name: "tmp1", size: kb(8)},
			{name: "tmp3", size: kb(6)},
			{name: "tmp6", size: kb(16)},
		},
		inputs:  []string{"re", "im"},
		outputs: []string{"re", "im"},
		repeat:  6,
		fns: []fnSpec{
			{name: "step1", axc: 0, mix: opMix{28, 7.8, 46.3, 17.9}, mlp: 5, lt: 500,
				reads: []strm{{reg: "re", passes: 1}, {reg: "im", passes: 1},
					{reg: "tmp1", passes: 1}},
				writes: []strm{{reg: "re", passes: 1}, {reg: "tmp1", passes: 1}}, opsPerIter: 16},
			{name: "step2", axc: 1, mix: opMix{52.1, 0, 29.9, 18}, mlp: 4, lt: 700,
				reads:  []strm{{reg: "re", passes: 1, reverse: true}},
				writes: []strm{{reg: "re", passes: 1, reverse: true}}, opsPerIter: 16},
			{name: "step3", axc: 2, mix: opMix{31.6, 7.5, 43.2, 17.7}, mlp: 4, lt: 200,
				reads: []strm{{reg: "re", passes: 1}, {reg: "im", passes: 1},
					{reg: "tmp3", passes: 1}},
				writes: []strm{{reg: "im", passes: 1}, {reg: "tmp3", passes: 1}}, opsPerIter: 16},
			{name: "step4", axc: 3, mix: opMix{49, 0, 31.8, 19.2}, mlp: 3, lt: 700,
				reads:  []strm{{reg: "im", passes: 1, reverse: true}},
				writes: []strm{{reg: "im", passes: 1, reverse: true}}, opsPerIter: 16},
			{name: "step5", axc: 4, mix: opMix{49, 0, 31.8, 19.2}, mlp: 3, lt: 700,
				reads:  []strm{{reg: "re", passes: 1}},
				writes: []strm{{reg: "re", passes: 1}}, opsPerIter: 16},
			{name: "step6", axc: 5, mix: opMix{20.3, 3.3, 53.8, 22.6}, mlp: 4, lt: 500,
				reads: []strm{{reg: "re", passes: 1, reverse: true},
					{reg: "im", passes: 1},
					{reg: "tmp6", passes: 2}},
				writes: []strm{{reg: "re", passes: 1}, {reg: "tmp6", passes: 1}}, opsPerIter: 16},
		},
		hostTail: true,
	}

	// Disparity (SD-VBS): stereo image pipeline. Working set ~128 KB:
	// misses the 64 KB L1X, fits the 256 KB one (the Figure 7 crossover).
	m["disp"] = benchSpec{
		name: "disp",
		regions: []region{
			{name: "ileft", size: kb(28)},
			{name: "iright", size: kb(28)},
			{name: "padded", size: kb(30)},
			{name: "sad", size: kb(28)},
			{name: "integ", size: kb(28)},
			{name: "disp", size: kb(14)},
		},
		inputs:  []string{"ileft", "iright"},
		outputs: []string{"disp"},
		repeat:  1,
		fns: []fnSpec{
			{name: "padarray4", axc: 0, mix: opMix{71, 0, 15.2, 13.8}, mlp: 5, lt: 500,
				reads:  []strm{{reg: "ileft", passes: 1}},
				writes: []strm{{reg: "padded", passes: 1}}, opsPerIter: 14},
			// SAD evaluates a disparity search range: it re-reads the padded
			// left image once per candidate shift — the repeated inter-AXC
			// DMA traffic behind the paper's 640 DISP transfers.
			{name: "SAD", axc: 1, mix: opMix{57.9, 8.2, 17.6, 16.3}, mlp: 3, lt: 500,
				reads: []strm{{reg: "padded", passes: 6, pattern: patStencil},
					{reg: "iright", passes: 2}},
				writes: []strm{{reg: "sad", passes: 1}}, opsPerIter: 14},
			{name: "2D2D", axc: 2, mix: opMix{62.8, 0, 24.9, 12.3}, mlp: 4, lt: 500,
				reads:  []strm{{reg: "sad", passes: 2, pattern: patStencil}},
				writes: []strm{{reg: "integ", passes: 1}}, opsPerIter: 14},
			{name: "finalSAD", axc: 3, mix: opMix{22.8, 0, 71.3, 5.9}, mlp: 6, lt: 500,
				reads:  []strm{{reg: "integ", passes: 6, pattern: patStencil}},
				writes: []strm{{reg: "sad", passes: 1}}, opsPerIter: 16},
			{name: "findDisp", axc: 4, mix: opMix{32.7, 32.3, 30.7, 4.3}, mlp: 2, lt: 500,
				reads:  []strm{{reg: "sad", passes: 2}, {reg: "integ", passes: 1}},
				writes: []strm{{reg: "disp", passes: 1}}, opsPerIter: 14},
		},
		hostTail: true,
	}

	// Tracking (SD-VBS): feature-tracking pre-processing. Working set
	// ~300 KB: beyond both L1X sizes (paper: 371 KB).
	m["track"] = benchSpec{
		name: "track",
		regions: []region{
			// The input image dominates the 300 KB working set; the
			// inter-accelerator intermediates (blur, resized — the 99%%
			// shared data of imgResize, Table 1) fit the 64 KB L1X, which
			// is how FUSION avoids the inter-AXC DMA transfers the paper
			// calls out for TRACK (Section 5.2).
			{name: "img", size: kb(128)},
			{name: "blur", size: kb(56)},
			{name: "resized", size: kb(40)},
			{name: "sobel", size: kb(80)},
		},
		inputs:  []string{"img"},
		outputs: []string{"sobel"},
		repeat:  1,
		fns: []fnSpec{
			{name: "imgBlur", axc: 0, mix: opMix{52.8, 15.1, 24, 8.1}, mlp: 2, lt: 700,
				reads:  []strm{{reg: "img", passes: 1, pattern: patStencil}},
				writes: []strm{{reg: "blur", passes: 1}}, opsPerIter: 16},
			{name: "imgResize", axc: 1, mix: opMix{57.1, 11.4, 26.3, 5.2}, mlp: 2, lt: 770,
				reads:  []strm{{reg: "blur", passes: 1, reverse: true}},
				writes: []strm{{reg: "resized", passes: 1, reverse: true}}, opsPerIter: 16},
			{name: "calcSobel", axc: 2, mix: opMix{52.8, 17.4, 22.8, 7.1}, mlp: 1, lt: 720,
				reads:  []strm{{reg: "resized", passes: 2, pattern: patStencil}},
				writes: []strm{{reg: "sobel", passes: 1}}, opsPerIter: 16},
		},
		hostTail: true,
	}

	// ADPCM (MachSuite): tiny working set (<30 KB), near-total sharing
	// between coder and decoder, many passes -> SCRATCH does well.
	m["adpcm"] = benchSpec{
		name: "adpcm",
		regions: []region{
			{name: "pcm", size: kb(12)},
			{name: "compressed", size: kb(4)},
			{name: "decoded", size: kb(12)},
		},
		inputs: []string{"pcm"},
		// The host's final SNR check reads both the original samples and
		// the decoded output, which is why the paper's coder/decoder share
		// ~99%% of their data (Table 1).
		outputs: []string{"pcm", "decoded"},
		repeat:  6,
		fns: []fnSpec{
			{name: "coder", serial: true, axc: 0, mix: opMix{32.8, 0, 56, 11.2}, mlp: 2, lt: 1400,
				reads:  []strm{{reg: "pcm", passes: 1, stride: 8, pattern: patBlocked, reuse: 32}},
				writes: []strm{{reg: "compressed", passes: 1, stride: 8}}, opsPerIter: 12},
			{name: "decoder", serial: true, axc: 1, mix: opMix{40.8, 0, 48, 11.2}, mlp: 2, lt: 1400,
				reads:  []strm{{reg: "compressed", passes: 1, stride: 8, pattern: patBlocked, reuse: 32}},
				writes: []strm{{reg: "decoded", passes: 1, stride: 8}}, opsPerIter: 12},
		},
		hostTail: true,
	}

	// Susan (SD-VBS): smoothing dominates (66% of time, 86% of energy);
	// small working set with strong spatial locality.
	m["susan"] = benchSpec{
		name: "susan",
		regions: []region{
			{name: "img", size: kb(20)},
			{name: "smoothed", size: kb(20)},
			{name: "corners", size: kb(4)},
			{name: "edges", size: kb(12)},
		},
		inputs:  []string{"img"},
		outputs: []string{"corners", "edges"},
		repeat:  2,
		fns: []fnSpec{
			{name: "bright", axc: 0, mix: opMix{22.5, 48.9, 20.3, 8.4}, mlp: 2, lt: 1000,
				reads:  []strm{{reg: "img", passes: 1, stride: 64}},
				writes: []strm{}, opsPerIter: 12},
			{name: "smooth", serial: true, axc: 1, mix: opMix{24.3, 0, 67.6, 8.1}, mlp: 2, lt: 1700,
				reads:  []strm{{reg: "img", passes: 2, pattern: patBlocked, reuse: 20}},
				writes: []strm{{reg: "smoothed", passes: 1}}, opsPerIter: 16},
			{name: "corn", serial: true, axc: 2, mix: opMix{33.1, 1.3, 61, 4.6}, mlp: 2, lt: 1200,
				reads:  []strm{{reg: "smoothed", passes: 1, pattern: patBlocked, reuse: 16}},
				writes: []strm{{reg: "corners", passes: 1}}, opsPerIter: 14},
			{name: "edges", serial: true, axc: 3, mix: opMix{32.6, 1.6, 60.3, 5.5}, mlp: 2, lt: 1700,
				reads:  []strm{{reg: "smoothed", passes: 1, pattern: patBlocked, reuse: 16}},
				writes: []strm{{reg: "edges", passes: 1}}, opsPerIter: 14},
		},
		hostTail: true,
	}

	// Filter (SD-VBS): median + edge filters iterating per pixel over a
	// small image — the L0X-thrashing pattern of Lesson 4.
	m["filt"] = benchSpec{
		name: "filt",
		regions: []region{
			{name: "img", size: kb(16)},
			{name: "med", size: kb(16)},
			{name: "edge", size: kb(16)},
		},
		inputs:  []string{"img"},
		outputs: []string{"edge"},
		repeat:  3,
		fns: []fnSpec{
			{name: "medfilt", serial: true, axc: 0, mix: opMix{48.2, 0, 49.1, 2.7}, mlp: 2, lt: 400,
				reads:  []strm{{reg: "img", passes: 2, pattern: patBlocked, reuse: 20}},
				writes: []strm{{reg: "med", passes: 1}}, opsPerIter: 16},
			{name: "edgefilt", axc: 1, mix: opMix{41.3, 23.9, 28.1, 6.7}, mlp: 4, lt: 400,
				reads:  []strm{{reg: "med", passes: 1, pattern: patBlocked, reuse: 16}},
				writes: []strm{{reg: "edge", passes: 1}}, opsPerIter: 14},
		},
		hostTail: true,
	}

	// Histogram: large images (working set beyond every cache), a tiny
	// randomly-accessed histogram table with total sharing, FP-heavy
	// colour-space conversions at either end.
	m["hist"] = benchSpec{
		name: "hist",
		regions: []region{
			{name: "in", size: kb(192)},
			{name: "hsl", size: kb(192)},
			{name: "table", size: kb(2)},
			{name: "out", size: kb(192)},
		},
		inputs:  []string{"in"},
		outputs: []string{"out"},
		repeat:  1,
		fns: []fnSpec{
			{name: "rgb2hsl", axc: 0, mix: opMix{22.1, 51.8, 20.7, 5.4}, mlp: 4, lt: 500,
				reads:  []strm{{reg: "in", passes: 1}},
				writes: []strm{{reg: "hsl", passes: 1}}, opsPerIter: 16},
			{name: "histogram", serial: true, axc: 1, mix: opMix{40, 0, 53.3, 6.7}, mlp: 1, lt: 500,
				reads: []strm{{reg: "hsl", passes: 1, stride: 64},
					{reg: "table", passes: 4, pattern: patRandom}},
				writes: []strm{{reg: "table", passes: 4, pattern: patRandom}}, opsPerIter: 12},
			{name: "equaliz", serial: true, axc: 2, mix: opMix{36, 0.1, 59.9, 4}, mlp: 1, lt: 500,
				reads:  []strm{{reg: "table", passes: 8}},
				writes: []strm{{reg: "table", passes: 8}}, opsPerIter: 12},
			{name: "hsl2rgb", axc: 3, mix: opMix{26.3, 40.8, 22.1, 10.8}, mlp: 3, lt: 500,
				reads:  []strm{{reg: "hsl", passes: 1}, {reg: "table", passes: 2}},
				writes: []strm{{reg: "out", passes: 1}}, opsPerIter: 16},
		},
		hostTail: true,
	}

	return m
})

// Shape is what a paper benchmark declares of its accelerators: their
// count (the program's NumAXCs) and the shortest and longest function lease
// times (Table 3 LT).
type Shape struct {
	AXCs               int
	MinLease, MaxLease uint64
}

// ShapeOf returns the shape of paper benchmark name, read from its
// declaration without generating the program, and whether Names lists it.
func ShapeOf(name string) (Shape, bool) {
	spec, ok := specs()[name]
	sh := Shape{MinLease: math.MaxUint64}
	for _, fn := range spec.fns {
		sh.AXCs = max(sh.AXCs, fn.axc+1)
		sh.MinLease, sh.MaxLease = min(sh.MinLease, fn.lt), max(sh.MaxLease, fn.lt)
	}
	return sh, ok
}

// Benchmark holds a generated program plus the metadata the experiment
// harness needs.
type Benchmark struct {
	Program *trace.Program
	// InputLines are virtual line addresses preloaded into the host LLC.
	InputLines []mem.VAddr
	// LeaseTimes maps function name -> ACC lease time (Table 3 LT).
	LeaseTimes map[string]uint64
	// MLP maps function name -> configured datapath MLP (Table 1).
	MLP map[string]int
	// Producers maps each phase index to the shared-region lines it writes
	// that the next accelerator phase reads, with the consumer AXC — the
	// FUSION-Dx forwarding table from trace post-processing.
	Forwards map[int]ForwardSet
}

// ForwardSet is the Dx forwarding work of one producer phase.
type ForwardSet struct {
	Consumer int
	Lines    []mem.VAddr
}

// Get generates benchmark `name`. An unknown name is a caller bug and
// raises a structured failure (sim.ProtocolError).
func Get(name string) *Benchmark {
	spec, ok := specs()[name]
	if !ok {
		sim.Failf("workloads", 0, "", "unknown benchmark %q (have: %v)", name, Names())
	}
	return build(spec)
}

// build expands a spec into a concrete program. A function with no
// patRandom stream draws nothing from the rng, so all its repeats expand to
// the same trace: the later repeats reuse the first one's invocation, and
// its Iterations, while the rng sees the same draws in the same order as
// when every repeat was expanded.
func build(spec benchSpec) *Benchmark {
	rng := rand.New(rand.NewSource(int64(len(spec.name)) * 10007))

	// Lay regions out page-aligned starting at 1 MiB.
	base := mem.VAddr(1 << 20)
	regs := make(map[string]region)
	for _, r := range spec.regions {
		r.base = base
		regs[r.name] = r
		sz := (r.size + mem.PageBytes - 1) &^ (mem.PageBytes - 1)
		base += mem.VAddr(sz + mem.PageBytes) // guard page between regions
	}

	b := &Benchmark{
		Program: &trace.Program{
			Name:   spec.name,
			Phases: make([]trace.Phase, 0, spec.repeat*len(spec.fns)+1),
		},
		LeaseTimes: make(map[string]uint64),
		MLP:        make(map[string]int),
		Forwards:   make(map[int]ForwardSet),
	}
	for _, in := range spec.inputs {
		r := regs[in]
		for off := 0; off < r.size; off += mem.LineBytes {
			b.InputLines = append(b.InputLines, r.base+mem.VAddr(off))
		}
	}

	x := &expander{regs: regs, rng: rng}
	invs := make([]trace.Invocation, len(spec.fns))
	for rep := 0; rep < spec.repeat; rep++ {
		for i, fn := range spec.fns {
			if rep == 0 || fn.random() {
				invs[i] = x.invocation(fn)
			}
			b.LeaseTimes[fn.name] = fn.lt
			b.MLP[fn.name] = fn.mlp
			b.Program.Phases = append(b.Program.Phases,
				trace.Phase{Kind: trace.PhaseAccel, Inv: invs[i]})
		}
	}

	if spec.hostTail {
		b.Program.Phases = append(b.Program.Phases,
			trace.Phase{Kind: trace.PhaseHost, Inv: hostTail(spec, regs)})
	}

	b.Program.Seal() // trace is final; memoize the per-phase Lines views
	ComputeForwards(b)
	return b
}

// random reports whether any of fn's streams draws its addresses from the
// rng.
func (fn *fnSpec) random() bool {
	isRandom := func(s strm) bool { return s.pattern == patRandom }
	return slices.ContainsFunc(fn.reads, isRandom) || slices.ContainsFunc(fn.writes, isRandom)
}

// expander expands the functions of one build. seqs holds the streams of
// the set being expanded back to back, ends their end offsets, and stores
// a store sequence before down-sampling: scratch space reused across the
// build, which nothing the program keeps points into.
type expander struct {
	regs         map[string]region
	rng          *rand.Rand
	seqs, stores []mem.VAddr
	ends         []int
}

// invocation expands one function into its iteration trace. Its loads and
// stores share one allocation, and each iteration's streams are
// consecutive runs of it, sub-sliced (full-capacity slices) rather than
// copied: iteration traces dominate benchmark memory.
func (x *expander) invocation(fn fnSpec) trace.Invocation {
	total := float64(fn.opsPerIter)
	sum := fn.mix.Int + fn.mix.FP + fn.mix.Ld + fn.mix.St
	nLd := iround(total * fn.mix.Ld / sum)
	nSt := iround(total * fn.mix.St / sum)
	nInt := iround(total * fn.mix.Int / sum)
	nFp := iround(total * fn.mix.FP / sum)
	if nLd == 0 && fn.mix.Ld > 0 {
		nLd = 1
	}
	if nSt == 0 && fn.mix.St > 0 {
		nSt = 1
	}

	nLoads, nStores := x.setLen(fn.reads), x.setLen(fn.writes)
	iters := 1
	if nLd > 0 && nLoads > 0 {
		iters = (nLoads + nLd - 1) / nLd
	} else if nSt > 0 && nStores > 0 {
		iters = (nStores + nSt - 1) / nSt
	}

	// Honor the op mix: downsample the store stream to the store budget,
	// keeping its region coverage order (a sparser write stride).
	kept := nStores
	if want := iters * nSt; want > 0 && nStores > want {
		kept = want
	}
	addrs := make([]mem.VAddr, nLoads+kept)
	loads, stores := addrs[:nLoads], addrs[nLoads:]
	x.expand(fn.reads, loads)
	if kept == nStores {
		x.expand(fn.writes, stores)
	} else {
		x.stores = slices.Grow(x.stores[:0], nStores)[:nStores]
		x.expand(fn.writes, x.stores)
		for i := range stores {
			stores[i] = x.stores[i*nStores/kept]
		}
	}

	inv := trace.Invocation{Function: fn.name, AXC: fn.axc, LeaseTime: fn.lt, Serial: fn.serial,
		Iterations: make([]trace.Iteration, iters)}
	li, si := 0, 0
	for i := range inv.Iterations {
		it := &inv.Iterations[i]
		l0 := li
		li = min(li+nLd, nLoads)
		if li > l0 {
			it.Loads = loads[l0:li:li]
		}
		// Spread stores evenly across iterations.
		if wantSt := (i + 1) * kept / iters; wantSt > si {
			it.Stores = stores[si:wantSt:wantSt]
			si = wantSt
		}
		it.IntOps = nInt
		it.FPOps = nFp
	}
	return inv
}

// stream resolves s's region and stride.
func (x *expander) stream(s strm) (region, int) {
	r, ok := x.regs[s.reg]
	if !ok {
		sim.Failf("workloads", 0, "", "unknown region %q in stream spec", s.reg)
	}
	stride := s.stride
	if stride == 0 {
		// Default: word-granularity streaming, 8 accesses per line — the
		// spatial locality that lets the L0X filter ~80% of L1X accesses
		// (Lesson 3).
		stride = 8
	}
	return r, stride
}

// setLen returns the length of a stream set's interleaved address
// sequence. Every pattern's per-pass length is deterministic, so a
// sequence is sized exactly before it is generated instead of growing by
// appends, whose copies would be most of a build's garbage.
func (x *expander) setLen(ss []strm) int {
	n := 0
	for _, s := range ss {
		r, stride := x.stream(s)
		n += max(1, s.passes) * passLen(s, r, stride)
	}
	return n
}

// expand writes the round-robin interleaving of a stream set's address
// sequences into out, which holds exactly setLen(ss) addresses.
func (x *expander) expand(ss []strm, out []mem.VAddr) {
	x.seqs, x.ends = slices.Grow(x.seqs[:0], len(out)), x.ends[:0]
	longest := 0
	for _, s := range ss {
		start := len(x.seqs)
		x.seqs = x.appendSeq(x.seqs, s)
		if s.reverse {
			slices.Reverse(x.seqs[start:])
		}
		x.ends = append(x.ends, len(x.seqs))
		longest = max(longest, len(x.seqs)-start)
	}
	k := 0
	for j := 0; j < longest; j++ {
		start := 0
		for _, end := range x.ends {
			if start+j < end {
				out[k] = x.seqs[start+j]
				k++
			}
			start = end
		}
	}
}

// appendSeq appends stream s's address sequence, pass after pass, to seq.
func (x *expander) appendSeq(seq []mem.VAddr, s strm) []mem.VAddr {
	r, stride := x.stream(s)
	for p := 0; p < max(1, s.passes); p++ {
		switch s.pattern {
		case patRandom:
			n := r.size / stride
			for i := 0; i < n; i++ {
				off := x.rng.Intn(r.size) &^ 7
				seq = append(seq, r.base+mem.VAddr(off))
			}
		case patStencil:
			for off := 0; off < r.size; off += stride {
				seq = append(seq, r.base+mem.VAddr(off))
				// Neighbour taps: previous and next line.
				if off >= mem.LineBytes {
					seq = append(seq, r.base+mem.VAddr(off-mem.LineBytes))
				}
				if off+mem.LineBytes < r.size {
					seq = append(seq, r.base+mem.VAddr(off+mem.LineBytes))
				}
			}
		case patBlocked:
			reuse := s.reuse
			if reuse == 0 {
				reuse = blockedReuse
			}
			for blk := 0; blk < r.size; blk += blockedBytes {
				end := blk + blockedBytes
				if end > r.size {
					end = r.size
				}
				for rep := 0; rep < reuse; rep++ {
					for off := blk; off < end; off += stride {
						seq = append(seq, r.base+mem.VAddr(off))
					}
				}
			}
		default:
			for off := 0; off < r.size; off += stride {
				seq = append(seq, r.base+mem.VAddr(off))
			}
		}
	}
	return seq
}

// passLen computes one pass's sequence length for a stream without
// generating it — every pattern (including patRandom, whose *count* is
// fixed even though its addresses are not) is deterministic in length.
func passLen(s strm, r region, stride int) int {
	switch s.pattern {
	case patRandom:
		return r.size / stride
	case patStencil:
		n := 0
		for off := 0; off < r.size; off += stride {
			n++
			if off >= mem.LineBytes {
				n++
			}
			if off+mem.LineBytes < r.size {
				n++
			}
		}
		return n
	case patBlocked:
		reuse := s.reuse
		if reuse == 0 {
			reuse = blockedReuse
		}
		n := 0
		for blk := 0; blk < r.size; blk += blockedBytes {
			end := blk + blockedBytes
			if end > r.size {
				end = r.size
			}
			n += reuse * ((end - blk + stride - 1) / stride)
		}
		return n
	default:
		return (r.size + stride - 1) / stride
	}
}

// hostTail builds the final host phase: the host incrementally reads the
// benchmark outputs (Figure 3: the host fetches tmp_2 as it runs step3),
// one line per iteration. The iterations' one-load slices are windows of
// one slab.
func hostTail(spec benchSpec, regs map[string]region) trace.Invocation {
	n := 0
	for _, out := range spec.outputs {
		n += (regs[out].size + mem.LineBytes - 1) / mem.LineBytes
	}
	slab := make([]mem.VAddr, 0, n)
	iters := make([]trace.Iteration, 0, n)
	for _, out := range spec.outputs {
		r := regs[out]
		for off := 0; off < r.size; off += mem.LineBytes {
			i := len(slab)
			slab = append(slab, r.base+mem.VAddr(off))
			iters = append(iters, trace.Iteration{Loads: slab[i : i+1 : i+1], IntOps: 2})
		}
	}
	return trace.Invocation{Function: spec.name + ".host_consume", AXC: -1, Iterations: iters}
}

// maxForwardLines caps each phase's forward set. Forwarding is only useful
// for lines the consumer reads promptly — pushing more than the consumer's
// L0X can hold just evicts earlier forwards, paying a writeback on top of
// the transfer. The paper's trace post-processing "identifies the stores to
// be forwarded"; this cap is that selection.
const maxForwardLines = 48

// ComputeForwards derives the Dx forwarding sets — the paper's trace
// post-processing (Section 3.2): for each accelerator phase, the dirty
// lines its successor phase (on a different AXC) loads, in the consumer's
// first-touch order, capped at maxForwardLines. Call it after constructing
// a custom Benchmark to enable FUSION-Dx forwarding. A producer-consumer
// pair with the same two traces on the same two AXCs as an earlier pair
// (a repeated pipeline) reuses that pair's set.
func ComputeForwards(b *Benchmark) {
	if b.Forwards == nil {
		b.Forwards = make(map[int]ForwardSet)
	}
	type pairKey struct {
		p, q               trace.TraceID
		producer, consumer int
	}
	done := make(map[pairKey]ForwardSet)
	phases := b.Program.Phases
	for i := 0; i+1 < len(phases); i++ {
		p, q := &phases[i], &phases[i+1]
		if p.Kind != trace.PhaseAccel || q.Kind != trace.PhaseAccel {
			continue
		}
		if p.Inv.AXC == q.Inv.AXC {
			continue
		}
		k := pairKey{p.Inv.TraceID(), q.Inv.TraceID(), p.Inv.AXC, q.Inv.AXC}
		f, ok := done[k]
		if !ok {
			f = ForwardSet{Consumer: q.Inv.AXC, Lines: forwardLines(&p.Inv, &q.Inv)}
			done[k] = f
		}
		if len(f.Lines) > 0 {
			b.Forwards[i] = f
		}
	}
}

// forwardLines returns the lines producer p writes that consumer q loads,
// in q's first-load order, capped at maxForwardLines.
func forwardLines(p, q *trace.Invocation) []mem.VAddr {
	_, written := p.Lines()
	var lines []mem.VAddr
	seen := flat.New[struct{}](maxForwardLines)
	last := mem.VAddr(1) // the latest load's line, decided already; 1 is no line
	for j := range q.Iterations {
		for _, a := range q.Iterations[j].Loads {
			la := a.LineAddr()
			if la == last {
				continue
			}
			last = la
			if written[la] && seen.Ptr(uint64(la)) == nil {
				seen.Put(uint64(la), struct{}{})
				lines = append(lines, la)
				if len(lines) >= maxForwardLines {
					return lines
				}
			}
		}
	}
	return lines
}

func iround(f float64) int { return int(f + 0.5) }
