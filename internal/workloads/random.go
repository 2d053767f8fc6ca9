package workloads

// Random workload generation for differential testing: arbitrary (but
// well-formed) programs whose final memory state is checked against
// sequential semantics on every system. This is how the protocol stack is
// fuzzed beyond the seven calibrated benchmarks.

import (
	"fmt"
	"math/rand"
	"slices"

	"fusion/internal/mem"
	"fusion/internal/trace"
)

// RandomParams bounds a generated program.
type RandomParams struct {
	MaxAXCs      int // accelerators (1..)
	MaxPhases    int // pipeline length
	MaxRegions   int // distinct arrays
	MaxRegionKB  int // array size
	MaxIterOps   int // ops per iteration
	HostPhases   bool
	SerialChance float64 // probability a function is a serial chain
}

// DefaultRandomParams gives mid-sized programs that still run in
// milliseconds.
func DefaultRandomParams() RandomParams {
	return RandomParams{
		MaxAXCs:      4,
		MaxPhases:    6,
		MaxRegions:   5,
		MaxRegionKB:  24,
		MaxIterOps:   16,
		HostPhases:   true,
		SerialChance: 0.3,
	}
}

// Random generates a seeded, deterministic random benchmark: a pipeline of
// phases reading and writing randomly-chosen regions with random op mixes,
// lease times, and access patterns.
func Random(seed int64, p RandomParams) *Benchmark {
	rng := rand.New(rand.NewSource(seed))

	nRegions := 1 + rng.Intn(p.MaxRegions)
	regions := make([]region, nRegions)
	base := mem.VAddr(1 << 20)
	for i := range regions {
		size := (1 + rng.Intn(p.MaxRegionKB)) << 10
		regions[i] = region{name: fmt.Sprintf("r%d", i), base: base, size: size}
		sz := (size + mem.PageBytes - 1) &^ (mem.PageBytes - 1)
		base += mem.VAddr(sz + mem.PageBytes)
	}

	nAXCs := 1 + rng.Intn(p.MaxAXCs)
	nPhases := 1 + rng.Intn(p.MaxPhases)

	b := &Benchmark{
		Program:    &trace.Program{Name: fmt.Sprintf("random-%d", seed)},
		LeaseTimes: make(map[string]uint64),
		MLP:        make(map[string]int),
		Forwards:   make(map[int]ForwardSet),
	}

	// Preload a random subset of regions as inputs.
	for i := range regions {
		if rng.Intn(2) == 0 {
			r := regions[i]
			for off := 0; off < r.size; off += mem.LineBytes {
				b.InputLines = append(b.InputLines, r.base+mem.VAddr(off))
			}
		}
	}

	for ph := 0; ph < nPhases; ph++ {
		fnName := fmt.Sprintf("fn%d", ph)
		axc := rng.Intn(nAXCs)
		lease := uint64(100 + rng.Intn(1500))
		inv := trace.Invocation{
			Function:  fnName,
			AXC:       axc,
			LeaseTime: lease,
			Serial:    rng.Float64() < p.SerialChance,
		}
		// Pick 1-2 read regions and 0-2 write regions.
		reads := pickRegions(rng, regions, 1+rng.Intn(2))
		writes := pickRegions(rng, regions, rng.Intn(3))

		nLd := 1 + rng.Intn(4)
		nSt := 0
		if len(writes) > 0 {
			nSt = 1 + rng.Intn(2)
		}
		nInt := rng.Intn(p.MaxIterOps)
		nFp := rng.Intn(4)

		loadStream := randStream(rng, reads)
		storeStream := randStream(rng, writes)
		iters := len(loadStream) / nLd
		if iters == 0 {
			iters = 1
		}
		if iters > 600 {
			iters = 600 // bound the run time
		}
		// Each iteration's loads and stores are full-capacity windows of
		// the streams, so the phase allocates no per-iteration slices.
		inv.Iterations = make([]trace.Iteration, iters)
		li, si := 0, 0
		for i := range inv.Iterations {
			it := &inv.Iterations[i]
			if n := min(nLd, len(loadStream)-li); n > 0 {
				it.Loads = loadStream[li : li+n : li+n]
				li += n
			}
			if n := min(nSt, len(storeStream)-si); n > 0 {
				it.Stores = storeStream[si : si+n : si+n]
				si += n
			}
			it.IntOps, it.FPOps = nInt, nFp
		}
		b.LeaseTimes[fnName] = lease
		b.MLP[fnName] = 1 + rng.Intn(6)

		kind := trace.PhaseAccel
		if p.HostPhases && rng.Intn(6) == 0 {
			kind = trace.PhaseHost
			inv.AXC = -1
		}
		b.Program.Phases = append(b.Program.Phases, trace.Phase{Kind: kind, Inv: inv})
	}

	compactAXCs(b)
	b.Program.Seal() // trace is final; memoize the per-phase Lines views
	ComputeForwards(b)
	return b
}

// compactAXCs renumbers accelerator ids densely from zero (a random draw
// may skip ids, which would waste tile resources).
func compactAXCs(b *Benchmark) {
	remap := map[int]int{}
	next := 0
	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if ph.Kind != trace.PhaseAccel {
			continue
		}
		if _, ok := remap[ph.Inv.AXC]; !ok {
			remap[ph.Inv.AXC] = next
			next++
		}
		ph.Inv.AXC = remap[ph.Inv.AXC]
	}
}

func pickRegions(rng *rand.Rand, regions []region, n int) []region {
	if n > len(regions) {
		n = len(regions)
	}
	idx := rng.Perm(len(regions))[:n]
	out := make([]region, n)
	for i, j := range idx {
		out[i] = regions[j]
	}
	return out
}

// randStream builds a random-order-ish address stream over the regions:
// each region is walked with a random stride and phase, with occasional
// random jumps.
func randStream(rng *rand.Rand, regs []region) []mem.VAddr {
	var out []mem.VAddr
	for _, r := range regs {
		stride := []int{8, 16, 32, 64}[rng.Intn(4)]
		out = slices.Grow(out, (r.size+stride-1)/stride)
		for off := 0; off < r.size; off += stride {
			a := off
			if rng.Intn(16) == 0 {
				a = rng.Intn(r.size) &^ 7 // random jump
			}
			out = append(out, r.base+mem.VAddr(a))
		}
	}
	// Interleave-shuffle lightly: swap random nearby pairs so streams are
	// not purely sequential but keep locality.
	for i := 0; i+8 < len(out); i += 4 {
		j := i + rng.Intn(8)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
