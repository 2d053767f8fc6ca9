// Package accel models fixed-function accelerator datapaths in the style of
// Aladdin (Section 4, "Modelling accelerator cores"): execution walks the
// constrained dependence structure of the offloaded function cycle by
// cycle, firing operations as their inputs and datapath resources allow,
// with an aggressive non-blocking memory interface.
//
// The dependence structure is the iteration pipeline of package trace:
// loads of an iteration are mutually independent; compute waits on the
// iteration's loads; stores wait on its compute; up to PipelineDepth
// iterations overlap. Memory-level parallelism is bounded by MLP
// outstanding requests — the knob that reproduces Table 1's per-function
// MLP spread (1.0–5.7).
//
// The datapath is event-driven. The in-flight window is a ring of
// PipelineDepth slots whose stages (loads to issue, compute pending,
// computing, stores to issue, complete) are bitmaps indexed by age, and
// compute is an absolute finish cycle rather than a per-cycle countdown.
// While every in-flight iteration waits on a memory completion, the MLP
// cap or a compute finish cycle, the accelerator reports itself idle and
// the engine fast-forwards; per-cycle accounting (busy cycles, MLP samples)
// is then settled lazily, so every reported number equals per-cycle
// stepping.
package accel

import (
	"math"
	"math/bits"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// MemPort is the accelerator's view of its memory system: an L0X cache
// (FUSION), the shared L1X (SHARED), or a scratchpad (SCRATCH). Access
// returns false when the port cannot accept the request this cycle.
type MemPort interface {
	Access(kind mem.AccessKind, va mem.VAddr, done func(now uint64)) bool
}

// Config sets the datapath resources of one fixed-function accelerator.
type Config struct {
	IntALUs       int // integer ops retired per cycle
	FPUs          int // floating-point ops retired per cycle
	MemPorts      int // memory ops issued per cycle
	MLP           int // max outstanding memory requests
	PipelineDepth int // iterations in flight, 1..MaxPipelineDepth
}

// MaxPipelineDepth bounds Config.PipelineDepth: each pipeline stage is one
// 64-bit bitmap over the in-flight window.
const MaxPipelineDepth = 64

// DefaultConfig is an aggressive fixed-function datapath: the paper assumes
// "an aggressive non-blocking interface to memory" (Section 4), which the
// deep iteration pipeline provides; the per-function MLP cap then bounds
// how much of it memory can actually absorb.
func DefaultConfig() Config {
	return Config{IntALUs: 4, FPUs: 2, MemPorts: 4, MLP: 6, PipelineDepth: 16}
}

// iterState tracks one in-flight iteration in its ring slot. A slot is
// reused once its iteration retires (every callback referencing it has
// fired by then).
type iterState struct {
	idx          int
	it           *trace.Iteration
	loadsIssued  int
	loadsDone    int
	storesIssued int
	storesDone   int
	compute      uint64 // cycles of compute once the loads complete
	computeEnd   uint64 // cycle whose tick finishes compute (while computing)
}

// memCb is a pooled completion callback for one memory access: it replaces
// the per-access closure (which allocated on every load/store issue). fn
// caches the bound method value so reuse allocates nothing.
type memCb struct {
	a    *Accelerator
	st   *iterState
	line uint64
	load bool
	fn   func(now uint64)
}

func (cb *memCb) done(now uint64) {
	a, st := cb.a, cb.st
	// Charge the cycles skipped since the last tick at the outstanding
	// count they saw, before this completion changes it.
	a.settle(now)
	bit := uint64(1) << uint(st.idx-a.head)
	if cb.load {
		st.loadsDone++
		if st.loadsDone == len(st.it.Loads) {
			a.ready |= bit
		}
	} else {
		st.storesDone++
		if st.storesDone == len(st.it.Stores) {
			a.complete |= bit
		}
	}
	a.release(cb.line)
	a.freeCbs = append(a.freeCbs, cb)
}

// Accelerator executes invocations against a MemPort. It is a sim.Ticker,
// a sim.IdleTicker and a sim.Waker.
type Accelerator struct {
	name string
	cfg  Config
	eng  *sim.Engine

	inv    *trace.Invocation
	port   MemPort
	onDone func(now uint64)

	// slots is the in-flight ring: iteration i lives in slots[i%depth].
	// head is the oldest in-flight iteration and count the window's
	// occupancy; iterations are admitted and retired in order.
	slots    []iterState
	head     int
	count    int
	nextIter int
	freeCbs  []*memCb

	// Stage bitmaps over the in-flight window, bit k = iteration head+k.
	issueLd   uint64 // loads left to issue
	issueSt   uint64 // compute done, stores left to issue
	mlpWait   uint64 // next access blocked by the MLP cap
	ready     uint64 // loads done, compute not started
	computing uint64 // compute running until computeEnd
	computed  uint64 // compute done (Serial admission gate)
	complete  uint64 // loads, compute and stores all done
	nextEnd   uint64 // earliest computeEnd among computing, MaxUint64 if none

	// outstanding tracks in-flight memory requests at cache-line
	// granularity: several word accesses to one line count as a single
	// outstanding request (they merge in the cache's MSHR), matching how
	// the paper's Table 1 MLP is measured. Bounded by cfg.MLP, so a
	// linearly-scanned list replaces the former map.
	outstanding []lineCount

	startCycle uint64
	// chargeFrom is the first cycle whose busy-cycle and MLP accounting is
	// still owed; MaxUint64 until the invocation's first tick.
	chargeFrom uint64

	model energy.Model
	meter *energy.Meter

	cInvocations *stats.Counter
	cIntOps      *stats.Counter
	cFPOps       *stats.Counter
	cLoads       *stats.Counter
	cStores      *stats.Counter
	cCycles      *stats.Counter
	cMLPMilli    *stats.Counter

	// accumulated measurements
	busyCycles uint64
	mlpSamples uint64
	mlpSum     uint64
}

// lineCount is one outstanding line and its in-flight access count.
type lineCount struct {
	line  uint64
	count int
}

// outFind returns the index of line in the outstanding list, or -1.
func (a *Accelerator) outFind(line uint64) int {
	for i := range a.outstanding {
		if a.outstanding[i].line == line {
			return i
		}
	}
	return -1
}

// outInc bumps line's outstanding count, appending it if new.
func (a *Accelerator) outInc(line uint64) {
	if i := a.outFind(line); i >= 0 {
		a.outstanding[i].count++
		return
	}
	a.outstanding = append(a.outstanding, lineCount{line, 1})
}

// New builds an accelerator and registers it with the engine.
func New(eng *sim.Engine, name string, cfg Config,
	model energy.Model, meter *energy.Meter, st *stats.Set) *Accelerator {
	if cfg.PipelineDepth < 1 || cfg.PipelineDepth > MaxPipelineDepth {
		sim.Failf(name, eng.Now(), "", "PipelineDepth %d outside 1..%d",
			cfg.PipelineDepth, MaxPipelineDepth)
	}
	a := &Accelerator{name: name, cfg: cfg, eng: eng, model: model, meter: meter,
		slots:        make([]iterState, cfg.PipelineDepth),
		cInvocations: st.Counter(name + ".invocations"),
		cIntOps:      st.Counter(name + ".int_ops"),
		cFPOps:       st.Counter(name + ".fp_ops"),
		cLoads:       st.Counter(name + ".loads"),
		cStores:      st.Counter(name + ".stores"),
		cCycles:      st.Counter(name + ".cycles"),
		cMLPMilli:    st.Counter(name + ".mlp_milli"),
	}
	eng.Register(a)
	return a
}

// Name implements sim.Ticker.
func (a *Accelerator) Name() string { return a.name }

// Busy reports whether an invocation is running.
func (a *Accelerator) Busy() bool { return a.inv != nil }

// Idle implements sim.IdleTicker. The datapath is idle with no invocation
// loaded, and also while stalled: nothing can be admitted, every in-flight
// iteration waits on a memory completion, the MLP cap or a compute finish
// cycle, and the oldest cannot retire. A stalled Tick only counts busy
// cycles and MLP samples, which settle lazily.
func (a *Accelerator) Idle() bool {
	if a.inv == nil {
		return true
	}
	if a.count == 0 || a.ready != 0 || (a.issueLd|a.issueSt)&^a.mlpWait != 0 ||
		a.complete&1 != 0 {
		return false
	}
	return !a.canAdmit()
}

// WakeAt implements sim.Waker: a fast-forward must stop at the earliest
// compute finish cycle, whose tick issues the iteration's stores; the
// engine steps that cycle even though Idle still reports true.
func (a *Accelerator) WakeAt(uint64) (uint64, bool) {
	if a.inv == nil || a.computing == 0 {
		return 0, false
	}
	return a.nextEnd, true
}

// Start launches an invocation. onDone fires the cycle the last operation
// retires. The accelerator must be idle.
func (a *Accelerator) Start(inv *trace.Invocation, port MemPort, onDone func(now uint64)) {
	if a.inv != nil {
		sim.Failf(a.name, a.eng.Now(), "", "Start while busy (running %s)", a.inv.Function)
	}
	a.inv = inv
	a.port = port
	a.onDone = onDone
	a.head, a.count, a.nextIter = 0, 0, 0
	a.issueLd, a.issueSt, a.mlpWait, a.ready = 0, 0, 0, 0
	a.computing, a.computed, a.complete = 0, 0, 0
	a.nextEnd = math.MaxUint64
	a.outstanding = a.outstanding[:0]
	a.startCycle = a.eng.Now()
	a.chargeFrom = math.MaxUint64
	a.cInvocations.Inc()
}

// slot returns the iteration at age position k of the window.
func (a *Accelerator) slot(k int) *iterState {
	return &a.slots[(a.head+k)%len(a.slots)]
}

// canAdmit reports whether the next iteration may enter the pipeline. A
// Serial invocation admits it only once every in-flight iteration's compute
// has finished (its stores may still be draining).
func (a *Accelerator) canAdmit() bool {
	if a.count == len(a.slots) || a.nextIter == len(a.inv.Iterations) {
		return false
	}
	return !a.inv.Serial || a.computed == 1<<uint(a.count)-1
}

// settle charges the owed cycles before end at the current outstanding
// count: the ticks the engine skipped saw exactly that count, since only a
// tick or a completion changes it and both settle first.
func (a *Accelerator) settle(end uint64) {
	if end <= a.chargeFrom {
		return
	}
	n := end - a.chargeFrom
	a.busyCycles += n
	// MLP is averaged over cycles with memory outstanding (the standard
	// definition; idle-memory compute cycles do not dilute it).
	if k := uint64(len(a.outstanding)); k > 0 {
		a.mlpSamples += n
		a.mlpSum += n * k
	}
	a.chargeFrom = end
}

// owed returns the cycles before the engine's current cycle whose
// accounting has not been settled yet.
func (a *Accelerator) owed() uint64 {
	if now := a.eng.Now(); a.inv != nil && now > a.chargeFrom {
		return now - a.chargeFrom
	}
	return 0
}

// getCb returns a ready-to-issue completion callback from the pool.
func (a *Accelerator) getCb(st *iterState, line uint64, load bool) *memCb {
	var cb *memCb
	if n := len(a.freeCbs); n > 0 {
		cb = a.freeCbs[n-1]
		a.freeCbs[n-1] = nil
		a.freeCbs = a.freeCbs[:n-1]
	} else {
		cb = &memCb{a: a}
		cb.fn = cb.done
	}
	cb.st, cb.line, cb.load = st, line, load
	return cb
}

// computeCycles returns how many cycles the compute phase of it occupies,
// given the datapath widths.
func (a *Accelerator) computeCycles(it *trace.Iteration) uint64 {
	ci := (it.IntOps + a.cfg.IntALUs - 1) / a.cfg.IntALUs
	cf := 0
	if it.FPOps > 0 {
		cf = (it.FPOps + a.cfg.FPUs - 1) / a.cfg.FPUs
	}
	c := ci
	if cf > c {
		c = cf
	}
	if c == 0 {
		c = 1
	}
	return uint64(c)
}

// Tick advances the pipeline one cycle: admit, issue loads (oldest
// iteration first), start and finish compute, issue stores of iterations
// whose compute is done, retire in order.
func (a *Accelerator) Tick(now uint64) {
	if a.inv == nil {
		return
	}
	if a.chargeFrom > now {
		a.chargeFrom = now // first tick of the invocation
	}
	a.settle(now + 1)

	for a.canAdmit() {
		it := &a.inv.Iterations[a.nextIter]
		st := a.slot(a.count)
		*st = iterState{idx: a.nextIter, it: it, compute: a.computeCycles(it)}
		if a.meter != nil {
			a.meter.Add(energy.CatCompute,
				float64(it.IntOps)*a.model.IntOp+float64(it.FPOps)*a.model.FPOp)
		}
		a.cIntOps.Add(int64(it.IntOps))
		a.cFPOps.Add(int64(it.FPOps))
		if len(it.Loads) > 0 {
			a.issueLd |= 1 << uint(a.count)
		} else {
			a.ready |= 1 << uint(a.count)
		}
		a.count++
		a.nextIter++
	}

	ports := a.cfg.MemPorts
	ports -= a.issueStage(&a.issueLd, true, ports)

	// Compute starts the tick that sees the loads done and finishes the
	// tick compute-1 cycles later, where the stores may issue.
	for r := a.ready; r != 0; r &= r - 1 {
		st := a.slot(bits.TrailingZeros64(r))
		st.computeEnd = now + st.compute - 1
		if st.computeEnd < a.nextEnd {
			a.nextEnd = st.computeEnd
		}
	}
	a.computing |= a.ready
	a.ready = 0
	if a.nextEnd <= now {
		a.finishCompute(now)
	}

	a.issueStage(&a.issueSt, false, ports)

	// Retire completed iterations from the head of the pipeline (in order).
	if n := bits.TrailingZeros64(^a.complete); n > 0 {
		for i := 0; i < n; i++ {
			a.eng.Progress() // an iteration retiring is forward progress
		}
		a.head += n
		a.count -= n
		a.issueLd >>= uint(n)
		a.issueSt >>= uint(n)
		a.mlpWait >>= uint(n)
		a.ready >>= uint(n)
		a.computing >>= uint(n)
		a.computed >>= uint(n)
		a.complete >>= uint(n)
	}

	if a.count == 0 && a.nextIter == len(a.inv.Iterations) && len(a.outstanding) == 0 {
		done := a.onDone
		a.cCycles.Add(int64(now - a.startCycle))
		// Emergent MLP in thousandths — the measured counterpart of
		// Table 1's MLP column (cumulative over invocations).
		a.cMLPMilli.Set(int64(a.AvgMLP() * 1000))
		a.inv, a.port, a.onDone = nil, nil, nil
		if done != nil {
			done(now)
		}
	}
}

// issueStage issues the accesses of the iterations in *stage, oldest
// first, until ports accesses have gone out, and returns how many did. An
// iteration stops at port back-pressure (retried next cycle) or at the MLP
// cap, which parks it in mlpWait until a line retires. The walk re-reads
// the bitmaps after every iteration, as a completion may run inside Access.
func (a *Accelerator) issueStage(stage *uint64, load bool, ports int) int {
	issued := 0
	for k := 0; issued < ports; k++ {
		m := (*stage &^ a.mlpWait) >> uint(k)
		if m == 0 {
			break
		}
		k += bits.TrailingZeros64(m)
		st := a.slot(k)
		addrs, next, kind, c := st.it.Stores, &st.storesIssued, mem.Store, a.cStores
		if load {
			addrs, next, kind, c = st.it.Loads, &st.loadsIssued, mem.Load, a.cLoads
		}
		for *next < len(addrs) && issued < ports {
			addr := addrs[*next]
			line := uint64(addr) >> 6
			if a.outFind(line) < 0 && len(a.outstanding) >= a.cfg.MLP {
				a.mlpWait |= 1 << uint(k) // a fresh line would exceed the MLP cap
				break
			}
			cb := a.getCb(st, line, load)
			if !a.port.Access(kind, addr, cb.fn) {
				a.freeCbs = append(a.freeCbs, cb)
				break // port back-pressure; retry next cycle
			}
			a.outInc(line)
			*next++
			issued++
			c.Inc()
		}
		if *next == len(addrs) {
			*stage &^= 1 << uint(k)
		}
	}
	return issued
}

// finishCompute moves every iteration whose compute ends by now on to its
// stores (or to complete when it has none) and recomputes nextEnd.
func (a *Accelerator) finishCompute(now uint64) {
	a.nextEnd = math.MaxUint64
	for c := a.computing; c != 0; c &= c - 1 {
		k := bits.TrailingZeros64(c)
		st := a.slot(k)
		if st.computeEnd > now {
			if st.computeEnd < a.nextEnd {
				a.nextEnd = st.computeEnd
			}
			continue
		}
		bit := uint64(1) << uint(k)
		a.computing &^= bit
		a.computed |= bit
		if len(st.it.Stores) > 0 {
			a.issueSt |= bit
		} else {
			a.complete |= bit
		}
	}
}

// release retires one access against its line's outstanding count. A line
// leaving the window frees an MLP slot, so every iteration parked on the
// cap may try again.
func (a *Accelerator) release(line uint64) {
	i := a.outFind(line)
	a.outstanding[i].count--
	if a.outstanding[i].count <= 0 {
		last := len(a.outstanding) - 1
		a.outstanding[i] = a.outstanding[last]
		a.outstanding = a.outstanding[:last]
		a.mlpWait = 0
	}
}

// AvgMLP returns the observed mean outstanding memory requests while busy.
func (a *Accelerator) AvgMLP() float64 {
	samples, sum := a.mlpSamples, a.mlpSum
	if k := uint64(len(a.outstanding)); k > 0 {
		n := a.owed()
		samples += n
		sum += n * k
	}
	if samples == 0 {
		return 0
	}
	return float64(sum) / float64(samples)
}

// BusyCycles returns the cycles spent executing invocations.
func (a *Accelerator) BusyCycles() uint64 { return a.busyCycles + a.owed() }
