package accel

import (
	"testing"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// fakePort completes every access after a fixed latency and records MLP.
type fakePort struct {
	eng         *sim.Engine
	latency     uint64
	outstanding int
	maxSeen     int
	accesses    int
	rejectFirst int // reject the first N accesses (back-pressure test)
}

func (p *fakePort) Access(kind mem.AccessKind, va mem.VAddr, done func(uint64)) bool {
	if p.rejectFirst > 0 {
		p.rejectFirst--
		return false
	}
	p.accesses++
	p.outstanding++
	if p.outstanding > p.maxSeen {
		p.maxSeen = p.outstanding
	}
	p.eng.Schedule(p.latency, func(now uint64) {
		p.outstanding--
		done(now)
	})
	return true
}

func iters(n, loadsPer, storesPer, intOps int) []trace.Iteration {
	out := make([]trace.Iteration, n)
	addr := uint64(0)
	for i := range out {
		for j := 0; j < loadsPer; j++ {
			out[i].Loads = append(out[i].Loads, mem.VAddr(addr))
			addr += 64
		}
		for j := 0; j < storesPer; j++ {
			out[i].Stores = append(out[i].Stores, mem.VAddr(addr))
			addr += 64
		}
		out[i].IntOps = intOps
	}
	return out
}

func runInv(t *testing.T, cfg Config, inv *trace.Invocation, port *fakePort) (*Accelerator, uint64, *energy.Meter, *stats.Set) {
	t.Helper()
	eng := sim.NewEngine()
	port.eng = eng
	mt := energy.NewMeter()
	st := stats.NewSet()
	a := New(eng, "axc0", cfg, energy.Default(), mt, st)
	var doneAt uint64
	fired := false
	a.Start(inv, port, func(now uint64) { doneAt = now; fired = true })
	if _, ok := eng.Run(1000000, func() bool { return fired }); !ok {
		t.Fatal("invocation never completed")
	}
	return a, doneAt, mt, st
}

func TestInvocationCompletes(t *testing.T) {
	inv := &trace.Invocation{Function: "f", Iterations: iters(10, 2, 1, 4)}
	port := &fakePort{latency: 5}
	a, doneAt, _, st := runInv(t, DefaultConfig(), inv, port)
	if doneAt == 0 {
		t.Fatal("no completion time")
	}
	if port.accesses != 30 {
		t.Fatalf("accesses = %d, want 30", port.accesses)
	}
	if st.Get("axc0.loads") != 20 || st.Get("axc0.stores") != 10 {
		t.Fatalf("load/store stats = %d/%d", st.Get("axc0.loads"), st.Get("axc0.stores"))
	}
	if a.Busy() {
		t.Fatal("still busy after completion")
	}
}

// TestUnloadedAcceleratorIsIdle: with no invocation loaded the datapath
// sleeps, so Run fast-forwards over it, before and after an invocation;
// with idle-skip off the engine ticks it anyway, and its Tick does nothing.
func TestUnloadedAcceleratorIsIdle(t *testing.T) {
	for _, skip := range []bool{true, false} {
		eng := sim.NewEngine()
		eng.SetIdleSkip(skip)
		a := New(eng, "axc0", DefaultConfig(), energy.Default(), nil, stats.NewSet())
		port := &fakePort{eng: eng, latency: 3}
		for i := 0; i < 2; i++ {
			busy, steps := a.BusyCycles(), eng.Steps()
			eng.Run(10, nil)
			if stepped := eng.Steps() - steps; skip && stepped != 0 || !skip && stepped != 10 {
				t.Fatalf("idle-skip %v: an unloaded accelerator left %d of 10 cycles stepped (pass %d)",
					skip, stepped, i)
			}
			if a.BusyCycles() != busy {
				t.Fatalf("unloaded accelerator counted %d busy cycles", a.BusyCycles()-busy)
			}
			fired := false
			a.Start(&trace.Invocation{Iterations: iters(2, 1, 1, 2)}, port, func(uint64) { fired = true })
			if _, ok := eng.Run(10_000, func() bool { return fired }); !ok {
				t.Fatal("invocation never completed")
			}
		}
	}
}

// TestStartFromOnDone: an invocation started from the previous one's onDone
// runs to completion, although the accelerator sleeps as each one retires.
func TestStartFromOnDone(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, "axc0", DefaultConfig(), energy.Default(), nil, stats.NewSet())
	inv := &trace.Invocation{Iterations: iters(4, 1, 1, 2)}
	port := &fakePort{eng: eng, latency: 3}
	var doneAt []uint64
	var onDone func(now uint64)
	onDone = func(now uint64) {
		if doneAt = append(doneAt, now); len(doneAt) < 3 {
			a.Start(inv, port, onDone)
		}
	}
	a.Start(inv, port, onDone)
	if _, ok := eng.Run(100_000, func() bool { return len(doneAt) == 3 }); !ok {
		t.Fatalf("back-to-back invocations retired at %v, want 3", doneAt)
	}
	if d0, d1 := doneAt[1]-doneAt[0], doneAt[2]-doneAt[1]; d0 != d1 {
		t.Fatalf("back-to-back invocations took %d and %d cycles, want equal", d0, d1)
	}
}

func TestMLPBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 3
	cfg.MemPorts = 4
	inv := &trace.Invocation{Iterations: iters(20, 4, 0, 1)}
	port := &fakePort{latency: 20}
	_, _, _, _ = runInv(t, cfg, inv, port)
	if port.maxSeen > 3 {
		t.Fatalf("outstanding reached %d, MLP cap is 3", port.maxSeen)
	}
}

func TestHigherMLPIsFaster(t *testing.T) {
	mk := func(mlp int) uint64 {
		cfg := DefaultConfig()
		cfg.MLP = mlp
		cfg.MemPorts = mlp
		inv := &trace.Invocation{Iterations: iters(50, 4, 0, 1)}
		port := &fakePort{latency: 30}
		_, doneAt, _, _ := runInv(t, cfg, inv, port)
		return doneAt
	}
	slow := mk(1)
	fast := mk(6)
	if fast*2 > slow {
		t.Fatalf("MLP=6 (%d cyc) not clearly faster than MLP=1 (%d cyc)", fast, slow)
	}
}

func TestStoresWaitForLoadsAndCompute(t *testing.T) {
	// One iteration, long-latency load: the store cannot issue until the
	// load returns plus compute cycles.
	inv := &trace.Invocation{Iterations: []trace.Iteration{{
		Loads:  []mem.VAddr{0x0},
		Stores: []mem.VAddr{0x40},
		IntOps: 8, // 2 cycles at 4 ALUs
	}}}
	port := &fakePort{latency: 50}
	_, doneAt, _, _ := runInv(t, DefaultConfig(), inv, port)
	if doneAt < 50+2 {
		t.Fatalf("completed at %d; store must wait for load (50) + compute (2)", doneAt)
	}
	// Exactly: the load issues at 0 and returns at 50, compute occupies the
	// ticks of 50 and 51, the store issues at 51 and returns at 101, where
	// the iteration retires.
	if doneAt != 101 {
		t.Fatalf("completed at %d, want 101", doneAt)
	}
}

func TestPipelineOverlapsIterations(t *testing.T) {
	mk := func(depth int) uint64 {
		cfg := DefaultConfig()
		cfg.PipelineDepth = depth
		inv := &trace.Invocation{Iterations: iters(20, 1, 0, 40)} // compute heavy
		port := &fakePort{latency: 10}
		_, doneAt, _, _ := runInv(t, cfg, inv, port)
		return doneAt
	}
	serial := mk(1)
	piped := mk(4)
	if piped >= serial {
		t.Fatalf("pipelined (%d) not faster than serial (%d)", piped, serial)
	}
}

func TestBackPressureRetries(t *testing.T) {
	inv := &trace.Invocation{Iterations: iters(2, 2, 0, 1)}
	port := &fakePort{latency: 3, rejectFirst: 5}
	_, _, _, _ = runInv(t, DefaultConfig(), inv, port)
	if port.accesses != 4 {
		t.Fatalf("accesses = %d, want 4 despite rejections", port.accesses)
	}
}

func TestComputeEnergyAccounted(t *testing.T) {
	inv := &trace.Invocation{Iterations: []trace.Iteration{
		{Loads: []mem.VAddr{0}, IntOps: 10, FPOps: 4},
	}}
	port := &fakePort{latency: 1}
	_, _, mt, _ := runInv(t, DefaultConfig(), inv, port)
	model := energy.Default()
	want := 10*model.IntOp + 4*model.FPOp
	if got := mt.Get(energy.CatCompute); got != want {
		t.Fatalf("compute energy = %v, want %v", got, want)
	}
}

func TestAvgMLPMeasured(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 4
	cfg.MemPorts = 4
	inv := &trace.Invocation{Iterations: iters(40, 4, 0, 1)}
	port := &fakePort{latency: 25}
	a, _, _, _ := runInv(t, cfg, inv, port)
	if m := a.AvgMLP(); m < 1.0 || m > 4.0 {
		t.Fatalf("AvgMLP = %v, want within (1,4]", m)
	}
	if got, want := a.MLPMilli(), int64(a.AvgMLP()*1000); got != want {
		t.Fatalf("MLPMilli = %d, want %d", got, want)
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	eng := sim.NewEngine()
	a := New(eng, "axc", DefaultConfig(), energy.Default(), nil, nil)
	port := &fakePort{eng: eng, latency: 100}
	inv := &trace.Invocation{Iterations: iters(1, 1, 0, 1)}
	a.Start(inv, port, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	a.Start(inv, port, nil)
}

func TestSerialInvocationOrdersIterations(t *testing.T) {
	// Serial mode: iteration i+1's loads must not issue before iteration
	// i's compute completes, so with long loads the iterations serialize.
	mk := func(serial bool) uint64 {
		inv := &trace.Invocation{Serial: serial, Iterations: iters(20, 1, 0, 4)}
		port := &fakePort{latency: 20}
		_, doneAt, _, _ := runInv(t, DefaultConfig(), inv, port)
		return doneAt
	}
	pipelined := mk(false)
	serial := mk(true)
	if serial < 2*pipelined {
		t.Fatalf("serial (%d) not clearly slower than pipelined (%d)", serial, pipelined)
	}
	// Lower bound: 20 iterations x (20cy load + 1cy compute) serialized.
	if serial < 20*20 {
		t.Fatalf("serial %d below the dependence-chain bound", serial)
	}
}

func TestMLPGaugeReported(t *testing.T) {
	inv := &trace.Invocation{Iterations: iters(30, 4, 0, 1)}
	port := &fakePort{latency: 25}
	_, _, _, st := runInv(t, DefaultConfig(), inv, port)
	milli := st.Get("axc0.mlp_milli")
	if milli <= 0 || milli > 6000 {
		t.Fatalf("mlp_milli = %d out of range", milli)
	}
}
