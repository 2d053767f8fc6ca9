package host

import (
	"testing"
	"unsafe"

	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
	"fusion/internal/vm"
)

type harness struct {
	eng  *sim.Engine
	core *Core
	l1   *mesi.Client
	dir  *mesi.Directory
	pt   *vm.PageTable
	st   *stats.Set
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	dir := mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	l1 := mesi.NewClient(fab, 1, mesi.DefaultHostL1Config(model), model, mt, st)
	core := New(eng, "host", DefaultConfig(), l1, st)
	return &harness{eng: eng, core: core, l1: l1, dir: dir, pt: vm.NewPageTable(), st: st}
}

func (h *harness) translate(va mem.VAddr) mem.PAddr {
	return h.pt.Translate(1, va).LineAddr() + mem.PAddr(va.PageOffset()%64)
}

func (h *harness) runPhase(t *testing.T, inv *trace.Invocation) uint64 {
	t.Helper()
	var doneAt uint64
	fired := false
	h.core.Start(inv, func(va mem.VAddr) mem.PAddr { return h.pt.Translate(1, va) },
		func(now uint64) { doneAt = now; fired = true })
	if _, ok := h.eng.Run(5000000, func() bool { return fired }); !ok {
		t.Fatal("phase never completed")
	}
	return doneAt
}

func seqIters(n, loadsPer, intOps, storesPer int) []trace.Iteration {
	var out []trace.Iteration
	addr := uint64(0)
	for i := 0; i < n; i++ {
		var it trace.Iteration
		for j := 0; j < loadsPer; j++ {
			it.Loads = append(it.Loads, mem.VAddr(addr))
			addr += 64
		}
		it.IntOps = intOps
		for j := 0; j < storesPer; j++ {
			it.Stores = append(it.Stores, mem.VAddr(addr))
			addr += 64
		}
		out = append(out, it)
	}
	return out
}

func TestPhaseCompletesAndCommitsAll(t *testing.T) {
	h := newHarness(t)
	inv := &trace.Invocation{Function: "step3", Iterations: seqIters(10, 2, 6, 1)}
	h.runPhase(t, inv)
	wantOps := int64(10 * (2 + 6 + 1))
	if got := h.st.Get("host.committed"); got != wantOps {
		t.Fatalf("committed = %d, want %d", got, wantOps)
	}
	if h.core.Busy() {
		t.Fatal("core still busy")
	}
}

// TestUnloadedCoreIsIdle: with no phase loaded the core sleeps, so Run
// fast-forwards over it, before and after a phase; with idle-skip off the
// engine ticks it anyway, and its Tick does nothing.
func TestUnloadedCoreIsIdle(t *testing.T) {
	for _, skip := range []bool{true, false} {
		h := newHarness(t)
		h.eng.SetIdleSkip(skip)
		for i := 0; i < 2; i++ {
			// Let the memory system settle the previous phase's traffic.
			h.eng.Run(1_000_000, func() bool { return h.eng.Pending() == 0 })
			busy, steps := h.core.BusyCycles(), h.eng.Steps()
			h.eng.Run(10, nil)
			if stepped := h.eng.Steps() - steps; skip && stepped != 0 || !skip && stepped != 10 {
				t.Fatalf("idle-skip %v: an unloaded core left %d of 10 cycles stepped (pass %d)",
					skip, stepped, i)
			}
			if h.core.BusyCycles() != busy {
				t.Fatalf("unloaded core counted %d busy cycles", h.core.BusyCycles()-busy)
			}
			h.runPhase(t, &trace.Invocation{Iterations: seqIters(2, 1, 1, 1)})
		}
	}
}

// TestStartFromOnDone: a phase started from the previous one's onDone runs
// to completion, although the core sleeps as each phase retires.
func TestStartFromOnDone(t *testing.T) {
	h := newHarness(t)
	inv := &trace.Invocation{Iterations: seqIters(4, 1, 2, 1)}
	translate := func(va mem.VAddr) mem.PAddr { return h.pt.Translate(1, va) }
	phases := 0
	var onDone func(now uint64)
	onDone = func(uint64) {
		if phases++; phases < 3 {
			h.core.Start(inv, translate, onDone)
		}
	}
	h.core.Start(inv, translate, onDone)
	if _, ok := h.eng.Run(5_000_000, func() bool { return phases == 3 }); !ok {
		t.Fatalf("%d back-to-back phases retired, want 3", phases)
	}
	if got, want := h.st.Get("host.committed"), int64(3*4*(1+2+1)); got != want {
		t.Fatalf("committed = %d, want %d", got, want)
	}
}

func TestStoresVisibleAfterPhase(t *testing.T) {
	h := newHarness(t)
	inv := &trace.Invocation{Iterations: []trace.Iteration{
		{IntOps: 1, Stores: []mem.VAddr{0x1000, 0x2000}},
	}}
	h.runPhase(t, inv)
	for _, va := range []mem.VAddr{0x1000, 0x2000} {
		pa := h.pt.Translate(1, va)
		if l := h.l1.Peek(pa); l == nil || l.Ver != 1 {
			t.Fatalf("line %v = %+v, want M v1", va, l)
		}
	}
}

func TestWiderCoreIsFaster(t *testing.T) {
	run := func(width int) uint64 {
		h := newHarness(t)
		cfg := DefaultConfig()
		cfg.Width = width
		h.core.cfg = cfg
		inv := &trace.Invocation{Iterations: seqIters(50, 0, 8, 0)}
		return h.runPhase(t, inv)
	}
	narrow := run(1)
	wide := run(4)
	if wide >= narrow {
		t.Fatalf("4-wide (%d) not faster than 1-wide (%d)", wide, narrow)
	}
}

func TestMemoryLatencyOverlapped(t *testing.T) {
	// Independent loads in one iteration should overlap in the LQ: total
	// time must be far less than loads x DRAM latency.
	h := newHarness(t)
	inv := &trace.Invocation{Iterations: seqIters(1, 16, 1, 0)}
	cycles := h.runPhase(t, inv)
	if cycles > 16*250/2 {
		t.Fatalf("16 loads took %d cycles: no memory-level parallelism", cycles)
	}
}

func TestDependenceStoresAfterLoads(t *testing.T) {
	// A store in iteration 0 must not commit before its load returns; with
	// one long-latency load the phase cannot finish early.
	h := newHarness(t)
	inv := &trace.Invocation{Iterations: []trace.Iteration{{
		Loads:  []mem.VAddr{0x5000},
		IntOps: 1,
		Stores: []mem.VAddr{0x6000},
	}}}
	cycles := h.runPhase(t, inv)
	if cycles < 100 {
		t.Fatalf("phase finished in %d cycles; cold load alone costs ~200+", cycles)
	}
}

func TestROBLimitsInflight(t *testing.T) {
	h := newHarness(t)
	cfg := DefaultConfig()
	cfg.ROB = 8
	h.core.cfg = cfg
	inv := &trace.Invocation{Iterations: seqIters(20, 1, 4, 1)}
	h.runPhase(t, inv)
	if got := h.st.Get("host.committed"); got != int64(20*6) {
		t.Fatalf("committed = %d with tiny ROB", got)
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	h := newHarness(t)
	inv := &trace.Invocation{Iterations: seqIters(5, 1, 1, 0)}
	h.core.Start(inv, func(va mem.VAddr) mem.PAddr { return h.pt.Translate(1, va) }, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	h.core.Start(inv, nil, nil)
}

// TestHostOpSize: a phase allocates one hostOp per instruction, the core's
// largest allocation, so the refusal mark fits in the op's padding.
func TestHostOpSize(t *testing.T) {
	if n := unsafe.Sizeof(hostOp{}); n != 32 {
		t.Fatalf("hostOp is %d bytes, want 32", n)
	}
}
