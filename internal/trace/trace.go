// Package trace defines the workload representation the simulator executes:
// iteration-structured dynamic traces of accelerated functions, the
// Go-native stand-in for the constrained dynamic data-dependence graphs the
// paper extracts with its gprof/trace toolchain (Section 4).
//
// Each accelerated function is a sequence of iterations. Within an
// iteration, loads are independent of each other, compute consumes the
// loaded values, and stores depend on the compute — the canonical
// load/compute/store structure of the fixed-function datapaths the paper
// targets. Across iterations the accelerator pipelines execution, bounded
// by its resources and memory-level parallelism, which is exactly how the
// paper's Table 1 MLP figures arise.
package trace

import (
	"slices"

	"fusion/internal/flat"
	"fusion/internal/mem"
)

// Iteration is one loop body instance: a set of independent loads, a
// compute phase, and dependent stores.
type Iteration struct {
	Loads  []mem.VAddr
	Stores []mem.VAddr
	IntOps int
	FPOps  int
}

// Invocation is one offloaded execution of a function on an accelerator.
type Invocation struct {
	Function string
	AXC      int // which accelerator in the tile runs this function
	// LeaseTime is the ACC epoch length for this function (Table 3 LT),
	// derived from its expected invocation latency.
	LeaseTime uint64
	// Serial marks a loop-carried dependence: iteration i+1's loads wait
	// for iteration i's compute (ADPCM's predictor feedback, medfilt's
	// running window). Serial functions are the latency-sensitive ones
	// whose Table 1 MLP is near 1-2, and they are where the shared cache's
	// higher load-to-use latency costs the most (Lesson 2).
	Serial     bool
	Iterations []Iteration

	// memo caches the Lines view; Program.Seal fills it once the trace is
	// final. A plain pointer (not a sync.Once): sealing happens
	// single-threaded at build time, before the benchmark is shared.
	memo *invLines
}

// invLines is the immutable memoized result of Lines.
type invLines struct {
	lines   []mem.VAddr
	written map[mem.VAddr]bool
}

// Lines returns the distinct cache-line addresses an invocation touches,
// in first-touch order, along with which are written. Callers must treat
// both return values as read-only: sealed programs (every generated
// benchmark) share one memoized copy across all runs. The per-phase
// callers in systems and experiments make this a hot-ish path — the memo
// is what keeps repeated phase setups from re-hashing the whole trace.
func (inv *Invocation) Lines() ([]mem.VAddr, map[mem.VAddr]bool) {
	m := inv.memo
	if m == nil {
		m = newLineScan().scan(inv)
	}
	return m.lines, m.written
}

// lineScan computes Lines views. Its set and its two lists are scratch
// space that Seal reuses across phases, so a view allocates only what it
// keeps.
type lineScan struct {
	seen           *flat.Map[bool] // line -> written
	lines, written []mem.VAddr     // first-touch and first-store order
}

func newLineScan() *lineScan { return &lineScan{seen: flat.New[bool](0)} }

// scan computes inv's Lines view.
func (s *lineScan) scan(inv *Invocation) *invLines {
	s.seen.Clear()
	s.lines, s.written = s.lines[:0], s.written[:0]
	// Repeating the latest load's line or the latest store's line changes
	// nothing, so such an access skips the set. 1 is no line's address.
	lastLoad, lastStore := mem.VAddr(1), mem.VAddr(1)
	for i := range inv.Iterations {
		it := &inv.Iterations[i]
		for _, a := range it.Loads {
			if la := a.LineAddr(); la != lastLoad {
				lastLoad = la
				s.touch(la, false)
			}
		}
		for _, a := range it.Stores {
			if la := a.LineAddr(); la != lastStore {
				lastStore = la
				s.touch(la, true)
			}
		}
	}
	m := &invLines{lines: slices.Clone(s.lines), written: make(map[mem.VAddr]bool, len(s.written))}
	for _, la := range s.written {
		m.written[la] = true
	}
	return m
}

// touch records an access to line la, a store if w.
func (s *lineScan) touch(la mem.VAddr, w bool) {
	p := s.seen.Ptr(uint64(la))
	if p == nil {
		s.lines = append(s.lines, la)
		p = s.seen.Put(uint64(la), false)
	}
	if w && !*p {
		*p = true
		s.written = append(s.written, la)
	}
}

// TraceID identifies an invocation's Iterations storage: phases that
// share one trace (a generated function's repeats) have equal IDs.
type TraceID struct {
	first *Iteration
	n     int
}

// TraceID returns the identity of inv's Iterations storage.
func (inv *Invocation) TraceID() TraceID {
	if len(inv.Iterations) == 0 {
		return TraceID{}
	}
	return TraceID{&inv.Iterations[0], len(inv.Iterations)}
}

// Ops returns total op counts (int, fp, ld, st) for the invocation.
func (inv *Invocation) Ops() (intOps, fpOps, loads, stores int) {
	for i := range inv.Iterations {
		it := &inv.Iterations[i]
		intOps += it.IntOps
		fpOps += it.FPOps
		loads += len(it.Loads)
		stores += len(it.Stores)
	}
	return
}

// Program is a whole benchmark: an ordered sequence of phases that migrate
// between accelerators (and optionally back to the host), as in Figure 1.
type Program struct {
	Name   string
	Phases []Phase

	// wsLines memoizes WorkingSet's line count; sealed says Seal filled it.
	wsLines int
	sealed  bool
}

// PhaseKind distinguishes offloaded from host-run phases.
type PhaseKind uint8

const (
	// PhaseAccel runs on an accelerator in the tile.
	PhaseAccel PhaseKind = iota
	// PhaseHost runs on the host core (e.g. step3() of Figure 1).
	PhaseHost
)

// Phase is one step of the program pipeline.
type Phase struct {
	Kind PhaseKind
	Inv  Invocation
}

// Seal memoizes every phase's Lines view and the program's WorkingSet.
// Call once the trace is final, before the program is shared across
// concurrent runs. Phases whose Iterations are the same slice (a generated
// function's repeats) share one memo, computed once. A sealed program's
// phases may share storage, so it must not be mutated: a change to one
// phase's Iterations would reach every phase sharing them and leave the
// memo stale. Sealing is idempotent.
func (p *Program) Seal() {
	scan := newLineScan()
	memos := make(map[TraceID]*invLines)
	for i := range p.Phases {
		inv := &p.Phases[i].Inv
		k := inv.TraceID()
		m := memos[k]
		if m == nil {
			m = scan.scan(inv)
			memos[k] = m
		}
		inv.memo = m
	}
	p.wsLines, p.sealed = p.workingSetLines(scan.seen), true
}

// NumAXCs returns how many distinct accelerators the program uses.
func (p *Program) NumAXCs() int {
	max := -1
	for i := range p.Phases {
		ph := &p.Phases[i]
		if ph.Kind == PhaseAccel && ph.Inv.AXC > max {
			max = ph.Inv.AXC
		}
	}
	return max + 1
}

// WorkingSet returns the program's distinct line count and total bytes.
func (p *Program) WorkingSet() (lines int, bytes int) {
	lines = p.wsLines
	if !p.sealed {
		lines = p.workingSetLines(flat.New[bool](0))
	}
	return lines, lines * mem.LineBytes
}

// workingSetLines counts the distinct lines over every phase's Lines in
// seen, which it clears first.
func (p *Program) workingSetLines(seen *flat.Map[bool]) int {
	seen.Clear()
	for i := range p.Phases {
		ls, _ := p.Phases[i].Inv.Lines()
		for _, l := range ls {
			seen.Put(uint64(l), false)
		}
	}
	return seen.Len()
}

// SharedLines computes, per accelerated function, the fraction of its lines
// also touched by at least one *other* function — the paper's %SHR metric
// (Table 1). Repeated invocations of the same function do not count as
// sharing.
func (p *Program) SharedLines() map[string]float64 {
	touch := make(map[mem.VAddr]map[string]bool) // line -> set of functions
	for i := range p.Phases {
		fn := p.Phases[i].Inv.Function
		ls, _ := p.Phases[i].Inv.Lines()
		for _, l := range ls {
			if touch[l] == nil {
				touch[l] = make(map[string]bool)
			}
			touch[l][fn] = true
		}
	}
	out := make(map[string]float64)
	for i := range p.Phases {
		ph := &p.Phases[i]
		if _, done := out[ph.Inv.Function]; done {
			continue
		}
		ls, _ := ph.Inv.Lines()
		if len(ls) == 0 {
			continue
		}
		shared := 0
		for _, l := range ls {
			if len(touch[l]) > 1 {
				shared++
			}
		}
		out[ph.Inv.Function] = 100 * float64(shared) / float64(len(ls))
	}
	return out
}
