// Package host models the host out-of-order core of Table 2: 4-wide, a
// 96-entry ROB, 32-entry load and store queues, 6 integer ALUs and 2 FPUs,
// fed by the 64 KB L1D (a mesi.Client).
//
// The core is trace-driven, like the paper's macsim-based host model: it
// executes the iteration-structured trace of a host phase (e.g. step3() of
// Figure 1), dispatching into the ROB, issuing memory operations through
// the L1 as capacity allows, and committing in order. Its role in the
// evaluation is to produce and consume the data that migrates to and from
// the accelerator tile, as the MESI requester the tile interacts with.
package host

import (
	"math"
	"math/bits"
	"slices"

	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// Config sets the core's resources (defaults follow Table 2).
type Config struct {
	Width   int // fetch/dispatch/commit width
	ROB     int
	LQ, SQ  int
	IntALUs int
	FPUs    int
}

// DefaultConfig matches Table 2.
func DefaultConfig() Config {
	return Config{Width: 4, ROB: 96, LQ: 32, SQ: 32, IntALUs: 6, FPUs: 2}
}

type opKind uint8

const (
	opInt opKind = iota
	opFP
	opLoad
	opStore
)

// hostOp is one instruction of the phase. A load or store translates its
// address on its first issue attempt and keeps the result in pa, so the
// retries an L1 with full MSHRs forces do not walk the page table again.
// Translating at dispatch instead would hand out physical frames in a
// different order. refused marks a load or store the L1 refused as a clean
// miss when its free count stood at frees; it is not re-issued while the
// count stays there (see issue).
type hostOp struct {
	kind       opKind
	done       bool
	translated bool // pa holds addr's translation
	refused    bool
	frees      uint32
	addr       mem.VAddr
	pa         mem.PAddr
	iter       int
}

// Core HandleEvent opcodes.
const (
	opHostComputeDone = 0 // compute op at index arg retires
)

// memCb is a pooled completion callback for one L1 access, replacing the
// per-access closure. fn caches the bound method value so reuse allocates
// nothing. The op index is stable: c.ops only changes in Start, and a phase
// cannot end with callbacks outstanding.
type memCb struct {
	c    *Core
	idx  int
	load bool
	fn   func(now uint64)
}

func (cb *memCb) done(uint64) {
	c := cb.c
	c.eng.Wake(c.tick)
	op := &c.ops[cb.idx]
	op.done = true
	if cb.load {
		c.inLQ--
		if c.loadsLeft[op.iter]--; c.loadsLeft[op.iter] == 0 {
			c.loadsDone(op.iter)
		}
	} else {
		c.inSQ--
	}
	c.freeCbs = append(c.freeCbs, cb)
}

// Core is the host OOO processor. It is a sim.Ticker.
type Core struct {
	name string
	cfg  Config
	eng  *sim.Engine
	tick int // engine ticker index: asleep while unloaded or stalled
	l1   *mesi.Client

	inv       *trace.Invocation
	translate func(va mem.VAddr) mem.PAddr
	onDone    func(now uint64)

	ops      []hostOp // full instruction stream in program order
	head     int      // commit pointer
	dispatch int      // next op to enter the ROB
	inROB    int
	inLQ     int
	inSQ     int

	// iterStart[i] is the index of iteration i's first op: its loads, then
	// its int and FP ops, then its stores. loadsLeft and computeLeft track
	// each iteration's outstanding dependences.
	iterStart   []int
	loadsLeft   []int
	computeLeft []int

	// ready holds one bit per op, set while the op is dispatched, not yet
	// issued, and has its dependences met: a load once dispatched, an int
	// or FP op once its iteration's loads are done, a store once its
	// iteration's loads and compute are done. Every set bit lies in
	// [head, dispatch). readyALU, readyLd and readySt count the set bits
	// by kind.
	ready                      []uint64
	readyALU, readyLd, readySt int

	freeCbs []*memCb

	// busy counts the cycles a phase has been loaded; chargeFrom is the
	// first cycle not yet counted, MaxUint64 until the phase's first tick.
	busy       uint64
	chargeFrom uint64

	cPhases    *stats.Counter
	cLoads     *stats.Counter
	cStores    *stats.Counter
	cCommitted *stats.Counter
}

// New builds a core over its L1 client and registers it with the engine,
// asleep until Start.
func New(eng *sim.Engine, name string, cfg Config, l1 *mesi.Client, st *stats.Set) *Core {
	c := &Core{name: name, cfg: cfg, eng: eng, l1: l1,
		cPhases:    st.Counter(name + ".phases"),
		cLoads:     st.Counter(name + ".loads"),
		cStores:    st.Counter(name + ".stores"),
		cCommitted: st.Counter(name + ".committed"),
	}
	c.tick = eng.Register(c)
	eng.Sleep(c.tick, math.MaxUint64)
	return c
}

// Name implements sim.Ticker.
func (c *Core) Name() string { return c.name }

// Busy reports whether a phase is executing.
func (c *Core) Busy() bool { return c.inv != nil }

// stalled reports whether the loaded core's ticks are no-ops until an L1
// completion or a compute op retires: nothing can dispatch, the head
// cannot commit, no int or FP op is ready, and every ready load or store
// waits on a full LQ or SQ. A ready access with queue room keeps the core
// awake, so an L1 MSHR refusal is counted every cycle (re-offered to the
// L1 or charged, see issue). A stalled Tick only counts a busy cycle,
// which settles lazily.
func (c *Core) stalled() bool {
	if c.head == len(c.ops) || c.head < c.dispatch && c.ops[c.head].done ||
		c.dispatch < len(c.ops) && c.inROB < c.cfg.ROB || c.readyALU > 0 {
		return false
	}
	return (c.readyLd == 0 || c.inLQ >= c.cfg.LQ) && (c.readySt == 0 || c.inSQ >= c.cfg.SQ)
}

// Start begins executing a host phase. translate maps the program's virtual
// addresses to physical ones (the host L1 is physically addressed). onDone
// fires when the last instruction commits.
func (c *Core) Start(inv *trace.Invocation, translate func(mem.VAddr) mem.PAddr, onDone func(now uint64)) {
	if c.inv != nil {
		sim.Failf(c.name, c.eng.Now(), "", "Start while busy (running %s)", c.inv.Function)
	}
	c.inv = inv
	c.translate = translate
	c.onDone = onDone
	n := 0
	for i := range inv.Iterations {
		it := &inv.Iterations[i]
		n += len(it.Loads) + it.IntOps + it.FPOps + len(it.Stores)
	}
	c.ops = slices.Grow(c.ops[:0], n) // one allocation at most, not a growth series
	c.iterStart = resize(c.iterStart, len(inv.Iterations))
	c.loadsLeft = resize(c.loadsLeft, len(inv.Iterations))
	c.computeLeft = resize(c.computeLeft, len(inv.Iterations))
	for i := range inv.Iterations {
		it := &inv.Iterations[i]
		c.iterStart[i] = len(c.ops)
		for _, a := range it.Loads {
			c.ops = append(c.ops, hostOp{kind: opLoad, addr: a, iter: i})
		}
		for k := 0; k < it.IntOps; k++ {
			c.ops = append(c.ops, hostOp{kind: opInt, iter: i})
		}
		for k := 0; k < it.FPOps; k++ {
			c.ops = append(c.ops, hostOp{kind: opFP, iter: i})
		}
		for _, a := range it.Stores {
			c.ops = append(c.ops, hostOp{kind: opStore, addr: a, iter: i})
		}
		c.loadsLeft[i] = len(it.Loads)
		c.computeLeft[i] = it.IntOps + it.FPOps
	}
	c.ready = resize(c.ready, (len(c.ops)+63)/64)
	clear(c.ready)
	c.readyALU, c.readyLd, c.readySt = 0, 0, 0
	c.head, c.dispatch, c.inROB, c.inLQ, c.inSQ = 0, 0, 0, 0, 0
	c.chargeFrom = math.MaxUint64
	c.cPhases.Inc()
	c.eng.Wake(c.tick)
}

// resize returns s with length n, reusing capacity (contents undefined; the
// caller overwrites every element).
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// HandleEvent retires compute ops (closure-free events).
func (c *Core) HandleEvent(now uint64, op uint8, arg uint64) {
	c.eng.Wake(c.tick)
	switch op {
	case opHostComputeDone:
		o := &c.ops[arg]
		o.done = true
		if c.computeLeft[o.iter]--; c.computeLeft[o.iter] == 0 {
			c.computeDone(o.iter)
		}
	}
}

// markReady sets the ready bits of the dispatched ops in [lo, hi) and
// returns how many it set. Ops past the dispatch point get their bit when
// they dispatch.
func (c *Core) markReady(lo, hi int) int {
	hi = min(hi, c.dispatch)
	for i := lo; i < hi; i++ {
		c.ready[i>>6] |= 1 << (i & 63)
	}
	return max(hi-lo, 0)
}

// loadsDone readies iteration it's compute ops, and its stores when it has
// no compute, once its last load completes.
func (c *Core) loadsDone(it int) {
	its := &c.inv.Iterations[it]
	ci := c.iterStart[it] + len(its.Loads)
	n := its.IntOps + its.FPOps
	c.readyALU += c.markReady(ci, ci+n)
	if n == 0 {
		c.computeDone(it)
	}
}

// computeDone readies iteration it's stores once its loads and compute are
// all done.
func (c *Core) computeDone(it int) {
	its := &c.inv.Iterations[it]
	si := c.iterStart[it] + len(its.Loads) + its.IntOps + its.FPOps
	c.readySt += c.markReady(si, si+len(its.Stores))
}

// dispatchOne moves op i into the ROB, setting its ready bit if its
// dependences are already met.
func (c *Core) dispatchOne(i int) {
	op := &c.ops[i]
	switch {
	case op.kind == opLoad:
		c.readyLd++
	case c.loadsLeft[op.iter] != 0:
		return
	case op.kind == opStore:
		if c.computeLeft[op.iter] != 0 {
			return
		}
		c.readySt++
	default:
		c.readyALU++
	}
	c.ready[i>>6] |= 1 << (i & 63)
}

// nextReady returns the first ready op at index i or later, or dispatch if
// there is none.
func (c *Core) nextReady(i int) int {
	for w := i >> 6; w<<6 < c.dispatch; w++ {
		m := c.ready[w]
		if w == i>>6 {
			m &^= 1<<(i&63) - 1
		}
		if m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	return c.dispatch
}

// getCb returns a ready-to-issue L1 completion callback from the pool.
func (c *Core) getCb(idx int, load bool) *memCb {
	var cb *memCb
	if n := len(c.freeCbs); n > 0 {
		cb = c.freeCbs[n-1]
		c.freeCbs[n-1] = nil
		c.freeCbs = c.freeCbs[:n-1]
	} else {
		cb = &memCb{c: c}
		cb.fn = cb.done
	}
	cb.idx, cb.load = idx, load
	return cb
}

// issue offers load or store op i to the L1 and reports whether the L1
// accepted it. An op the L1 refused as a clean miss is not offered again
// until the L1 frees an MSHR, since until then the L1 would refuse it again
// with no effect but its counters and energy: such an op only adds one to
// *refused, for the caller to charge. A refusal that touched a resident
// line (a store upgrading a Shared line refreshes its LRU stamp) is offered
// again every cycle.
func (c *Core) issue(op *hostOp, i int, kind mem.AccessKind, refused *int) bool {
	if op.refused && op.frees == c.l1.Frees() {
		*refused++
		return false
	}
	cb := c.getCb(i, kind == mem.Load)
	if c.l1.Access(kind, c.physical(op), cb.fn) {
		return true
	}
	c.freeCbs = append(c.freeCbs, cb)
	op.refused, op.frees = !c.l1.RefusalTouched(), c.l1.Frees()
	return false
}

// physical returns the physical address of load or store op, translating
// it on the first call.
func (c *Core) physical(op *hostOp) mem.PAddr {
	if !op.translated {
		op.pa, op.translated = c.translate(op.addr), true
	}
	return op.pa
}

// Tick advances the pipeline.
func (c *Core) Tick(now uint64) {
	if c.inv == nil {
		return
	}
	if c.chargeFrom > now {
		c.chargeFrom = now // first tick of the phase
	}
	c.busy += now + 1 - c.chargeFrom
	c.chargeFrom = now + 1

	// Dispatch into the ROB.
	for n := 0; n < c.cfg.Width && c.dispatch < len(c.ops) && c.inROB < c.cfg.ROB; n++ {
		c.dispatchOne(c.dispatch)
		c.dispatch++
		c.inROB++
	}

	// Issue: walk the ready ops oldest-first, respecting per-cycle
	// functional-unit and queue limits.
	alu, fpu, memOps := c.cfg.IntALUs, c.cfg.FPUs, c.cfg.Width
	refused := 0 // clean-miss refusals not re-offered to the L1
	for i := c.head; alu != 0 || fpu != 0 || memOps != 0; i++ {
		if i = c.nextReady(i); i == c.dispatch {
			break
		}
		op := &c.ops[i]
		switch op.kind {
		case opInt:
			if alu == 0 {
				continue
			}
			alu--
			c.readyALU--
			c.eng.ScheduleCall(1, c, opHostComputeDone, uint64(i))
		case opFP:
			if fpu == 0 {
				continue
			}
			fpu--
			c.readyALU--
			c.eng.ScheduleCall(3, c, opHostComputeDone, uint64(i))
		case opLoad:
			if memOps == 0 || c.inLQ >= c.cfg.LQ {
				continue
			}
			if !c.issue(op, i, mem.Load, &refused) {
				continue // L1 MSHR full; retry next cycle
			}
			memOps--
			c.inLQ++
			c.readyLd--
			c.cLoads.Inc()
		case opStore:
			if memOps == 0 || c.inSQ >= c.cfg.SQ {
				continue
			}
			if !c.issue(op, i, mem.Store, &refused) {
				continue
			}
			memOps--
			c.inSQ++
			c.readySt--
			c.cStores.Inc()
		}
		c.ready[i>>6] &^= 1 << (i & 63)
	}
	// Charge the refusals the walk skipped in this tick. They add to the
	// L1's counters and to its energy category, and every add into that
	// category is the same per-access constant, so charging them here
	// instead of at their place in the walk leaves the meter's bits as the
	// calls would have.
	if refused > 0 {
		c.l1.ChargeRefusals(refused)
	}

	// Commit in order.
	for n := 0; n < c.cfg.Width && c.head < c.dispatch; n++ {
		if !c.ops[c.head].done {
			break
		}
		c.head++
		c.inROB--
		c.eng.Progress() // an instruction committing is forward progress
		c.cCommitted.Inc()
	}

	if c.head == len(c.ops) {
		done := c.onDone
		c.inv, c.translate, c.onDone = nil, nil, nil
		c.eng.Sleep(c.tick, math.MaxUint64) // before done, which may Start the next phase
		if done != nil {
			done(now)
		}
	} else if c.stalled() {
		c.eng.Sleep(c.tick, math.MaxUint64)
	}
}

// BusyCycles returns cycles spent executing host phases, including the
// cycles a stalled core was skipped over and has not counted yet.
func (c *Core) BusyCycles() uint64 {
	if now := c.eng.Now(); c.inv != nil && now > c.chargeFrom {
		return c.busy + now - c.chargeFrom
	}
	return c.busy
}
