package accel

// Equivalence of the event-driven datapath under the engine's fast-forward
// and of its fixed-latency completions: an invocation run with eng.Run
// (which skips the cycles a stalled datapath sleeps through), or through a
// port whose fixed latency the datapath applies itself, must report exactly
// what a manual eng.Step loop with idle-skip off (which never skips and
// ticks the datapath every cycle) reports when every access completes
// through its done callback.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/scratchpad"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// The fixed-latency memories are TimedPorts.
var _ TimedPort = (*scratchpad.Scratchpad)(nil)

// randomIters builds n iterations of 0-3 loads and 0-2 stores over a few
// dozen lines, so accesses merge in the outstanding window, with 0-23
// integer and 0-5 floating-point ops each.
func randomIters(seed int64, n int) []trace.Iteration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Iteration, n)
	for i := range out {
		for j := rng.Intn(4); j > 0; j-- {
			out[i].Loads = append(out[i].Loads, mem.VAddr(rng.Intn(24)*64+rng.Intn(8)*8))
		}
		for j := rng.Intn(3); j > 0; j-- {
			out[i].Stores = append(out[i].Stores, mem.VAddr((32+rng.Intn(16))*64))
		}
		out[i].IntOps = rng.Intn(24)
		out[i].FPOps = rng.Intn(6)
	}
	return out
}

// timedPort is a fixed-latency TimedPort, the shape of an L0X hit or a
// scratchpad access, that refuses its first reject accesses (back-pressure).
// Its Access schedules done at the latency it reports.
type timedPort struct {
	eng     *sim.Engine
	latency uint64
	reject  int
}

func (p *timedPort) AccessTimed(_ mem.AccessKind, _ mem.VAddr, done func(uint64)) (uint64, bool) {
	if p.reject > 0 {
		p.reject--
		return 0, false
	}
	if p.latency == 0 {
		p.eng.Schedule(0, done) // a zero latency completes through done
	}
	return p.latency, true
}

func (p *timedPort) Access(kind mem.AccessKind, va mem.VAddr, done func(uint64)) bool {
	lat, ok := p.AccessTimed(kind, va, done)
	if lat > 0 {
		p.eng.Schedule(lat, done)
	}
	return ok
}

// callbackPort hides a TimedPort's AccessTimed, so that the datapath
// completes every access through its done callback.
type callbackPort struct{ MemPort }

// tickPort completes each access latency cycles after it issues, from its
// own Tick. Registered after the accelerator, it delivers completions once
// the datapath has already ticked in that cycle, which an event-driven port
// never does. It sleeps until its next completion is due.
type tickPort struct {
	eng     *sim.Engine
	tick    int
	latency uint64
	pending []tickDone // in completion order: the latency is fixed
}

type tickDone struct {
	at   uint64
	done func(uint64)
}

func newTickPort(eng *sim.Engine, latency uint64) *tickPort {
	p := &tickPort{eng: eng, latency: latency}
	p.tick = eng.Register(p)
	eng.Sleep(p.tick, math.MaxUint64)
	return p
}

func (p *tickPort) Access(_ mem.AccessKind, _ mem.VAddr, done func(uint64)) bool {
	p.pending = append(p.pending, tickDone{p.eng.Now() + p.latency, done})
	p.eng.Wake(p.tick)
	return true
}

func (p *tickPort) Name() string { return "tickport" }

func (p *tickPort) Tick(now uint64) {
	for len(p.pending) > 0 && p.pending[0].at <= now {
		d := p.pending[0]
		p.pending = p.pending[1:]
		d.done(now)
	}
	at := uint64(math.MaxUint64)
	if len(p.pending) > 0 {
		at = p.pending[0].at
	}
	p.eng.Sleep(p.tick, at)
}

// sampler is a ticker, registered ahead of the accelerator under per-cycle
// stepping, that samples on every cycle what the datapath's per-cycle
// accounting should charge for that cycle: its totals are an independent
// reference.
type sampler struct {
	a                  *Accelerator
	busy               uint64
	mlpSamples, mlpSum uint64
}

func (p *sampler) Name() string { return "sampler" }

func (p *sampler) Tick(uint64) {
	if p.a.inv == nil {
		return
	}
	p.busy++
	if n := uint64(len(p.a.outstanding)); n > 0 {
		p.mlpSamples++
		p.mlpSum += n
	}
}

// skipCase is one invocation and the memory port that serves it.
type skipCase struct {
	name     string
	cfg      Config
	inv      trace.Invocation
	latency  uint64
	reject   int  // accesses the port refuses first (back-pressure)
	fromTick bool // serve accesses from a tickPort instead of a fakePort
	skips    bool // the fast-forward must skip at least half the cycles
}

// report is everything an invocation exposes.
type report struct {
	doneAt       uint64
	midBusy      uint64 // BusyCycles read mid-invocation
	midMLP       uint64 // AvgMLP bits read mid-invocation
	busy         uint64
	mlp          uint64 // AvgMLP bits
	counters, pj string
	steps        uint64 // cycles the engine stepped
	probe        sampler
}

// runReport runs tc's invocation to completion, by eng.Run when skip is set
// and otherwise by a manual Step loop with idle-skip off and a sampler
// ticking ahead of the datapath, reading the accounting once at a cycle in
// mid-invocation. The port is a timedPort, hidden behind a callbackPort
// when callback is set.
func runReport(t *testing.T, tc *skipCase, skip, callback bool) report {
	t.Helper()
	const mid, limit = 37, 1 << 20
	eng := sim.NewEngine()
	probe := &sampler{}
	if !skip {
		eng.SetIdleSkip(false)
		eng.Register(probe)
	}
	st, mt := stats.NewSet(), energy.NewMeter()
	a := New(eng, "axc0", tc.cfg, energy.Default(), mt, st)
	probe.a = a
	tp := &timedPort{eng: eng, latency: tc.latency, reject: tc.reject}
	var port MemPort = tp
	switch {
	case tc.fromTick:
		port = newTickPort(eng, tc.latency)
	case callback:
		port = callbackPort{tp}
	}
	var r report
	fired := false
	a.Start(&tc.inv, port, func(now uint64) { r.doneAt, fired = now, true })
	advance := func(until uint64, pred func() bool) {
		if skip {
			eng.Run(until-eng.Now(), pred)
			return
		}
		for eng.Now() < until && (pred == nil || !pred()) {
			eng.Step()
		}
	}
	advance(mid, nil)
	r.midBusy, r.midMLP = a.BusyCycles(), math.Float64bits(a.AvgMLP())
	advance(limit, func() bool { return fired })
	if !fired {
		t.Fatalf("invocation never completed (skip=%v)", skip)
	}
	if tp.reject != 0 {
		t.Fatalf("port still owes %d rejections", tp.reject)
	}
	r.busy, r.mlp = a.BusyCycles(), math.Float64bits(a.AvgMLP())
	var b strings.Builder
	st.Dump(&b)
	r.counters = b.String()
	b.Reset()
	mt.Dump(&b)
	r.pj = b.String()
	r.steps = eng.Steps()
	r.probe = *probe
	return r
}

func TestSkipMatchesStepping(t *testing.T) {
	mlp1 := DefaultConfig()
	mlp1.MLP, mlp1.MemPorts = 1, 1
	mlp2 := DefaultConfig()
	mlp2.MLP = 2
	depth1 := DefaultConfig()
	depth1.PipelineDepth = 1
	deep := DefaultConfig()
	deep.PipelineDepth = MaxPipelineDepth
	inv := func(its []trace.Iteration) trace.Invocation { return trace.Invocation{Iterations: its} }
	serial := func(its []trace.Iteration) trace.Invocation {
		return trace.Invocation{Serial: true, Iterations: its}
	}
	cases := []skipCase{
		{name: "default", cfg: DefaultConfig(), inv: inv(iters(24, 2, 1, 4)), latency: 5},
		{name: "latency-0", cfg: DefaultConfig(), inv: inv(iters(24, 2, 1, 4))},
		{name: "latency-1", cfg: DefaultConfig(), inv: inv(randomIters(1, 40)), latency: 1},
		{name: "latency-2", cfg: DefaultConfig(), inv: inv(randomIters(8, 40)), latency: 2},
		{name: "long-latency", cfg: DefaultConfig(), inv: inv(iters(24, 2, 1, 4)), latency: 80, skips: true},
		{name: "mlp-1", cfg: mlp1, inv: inv(iters(16, 3, 1, 4)), latency: 30, skips: true},
		{name: "mlp-1-latency-1", cfg: mlp1, inv: inv(randomIters(9, 40)), latency: 1},
		{name: "mlp-1-latency-2", cfg: mlp1, inv: serial(randomIters(10, 30)), latency: 2},
		{name: "serial-latency-1", cfg: DefaultConfig(), inv: serial(iters(20, 2, 1, 3)), latency: 1},
		{name: "mlp-cap-merging", cfg: mlp2, inv: inv(randomIters(2, 60)), latency: 17},
		{name: "serial", cfg: DefaultConfig(), inv: serial(iters(20, 1, 1, 4)), latency: 20, skips: true},
		{name: "serial-random", cfg: DefaultConfig(), inv: serial(randomIters(3, 40)), latency: 9},
		{name: "compute-heavy", cfg: DefaultConfig(), inv: inv(iters(8, 1, 1, 400)), latency: 3, skips: true},
		{name: "compute-heavy-depth-1", cfg: depth1, inv: inv(iters(8, 1, 1, 120)), latency: 3, skips: true},
		{name: "compute-heavy-latency-80", cfg: mlp2, inv: inv(iters(12, 2, 1, 200)), latency: 80, skips: true},
		{name: "zero-load", cfg: DefaultConfig(), inv: inv(iters(16, 0, 2, 12)), latency: 6},
		{name: "zero-load-zero-store", cfg: DefaultConfig(), inv: inv(iters(8, 0, 0, 9))},
		{name: "no-iterations", cfg: DefaultConfig()},
		{name: "back-pressure", cfg: DefaultConfig(), inv: inv(iters(6, 2, 1, 1)), latency: 12, reject: 7},
		{name: "back-pressure-random", cfg: mlp2, inv: inv(randomIters(4, 30)), latency: 25, reject: 40},
		{name: "back-pressure-latency-1", cfg: mlp1, inv: inv(randomIters(11, 30)), latency: 1, reject: 9},
		{name: "deep-window", cfg: deep, inv: inv(randomIters(5, 200)), latency: 40},
		{name: "tick-port", cfg: DefaultConfig(), inv: inv(randomIters(6, 60)), latency: 14, fromTick: true},
		{name: "tick-port-latency-0", cfg: mlp2, inv: serial(randomIters(7, 40)), fromTick: true},
	}
	for seed := int64(10); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{IntALUs: 1 + rng.Intn(4), FPUs: 1 + rng.Intn(2), MemPorts: 1 + rng.Intn(4),
			MLP: 1 + rng.Intn(6), PipelineDepth: 1 + rng.Intn(20)}
		tc := skipCase{name: fmt.Sprintf("random-%d", seed), cfg: cfg,
			inv: inv(randomIters(seed, 50)), latency: uint64(rng.Intn(40)),
			fromTick: seed%2 == 1}
		tc.inv.Serial = rng.Intn(3) == 0
		if !tc.fromTick {
			tc.reject = rng.Intn(5)
		}
		cases = append(cases, tc)
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			// The reference steps every cycle and completes every access
			// through done.
			step := runReport(t, tc, false, true)
			ref := step.probe
			refMLP := 0.0
			if ref.mlpSamples > 0 {
				refMLP = float64(ref.mlpSum) / float64(ref.mlpSamples)
			}
			// Per-cycle stepping charges exactly what the sampler saw.
			if step.busy != ref.busy || step.mlp != math.Float64bits(refMLP) {
				t.Errorf("stepping charged %d busy cycles at AvgMLP %v; the sampler saw %d at %v",
					step.busy, math.Float64frombits(step.mlp), ref.busy, refMLP)
			}
			for _, v := range []struct {
				name           string
				skip, callback bool
			}{
				{"skipping through done", true, true},
				{"skipping with fixed latencies", true, false},
				{"stepping with fixed latencies", false, false},
			} {
				if tc.fromTick && !v.callback {
					continue // a tickPort completes through done only
				}
				got := runReport(t, tc, v.skip, v.callback)
				compareReports(t, v.name, got, step)
				if tc.skips && v.skip && got.steps*2 > got.doneAt {
					t.Errorf("%s: stepped %d of %d cycles; the stalled datapath was not skipped",
						v.name, got.steps, got.doneAt)
				}
			}
		})
	}
}

// compareReports fails the test unless got, run as name says, reports
// exactly what the reference, stepped through done, reports.
func compareReports(t *testing.T, name string, got, ref report) {
	t.Helper()
	if got.doneAt != ref.doneAt {
		t.Errorf("completion cycle %d %s, %d stepping through done", got.doneAt, name, ref.doneAt)
	}
	if got.busy != ref.busy || got.midBusy != ref.midBusy {
		t.Errorf("BusyCycles %d (mid %d) %s, %d (mid %d) stepping through done",
			got.busy, got.midBusy, name, ref.busy, ref.midBusy)
	}
	if got.mlp != ref.mlp || got.midMLP != ref.midMLP {
		t.Errorf("AvgMLP %v (mid %v) %s, %v (mid %v) stepping through done",
			math.Float64frombits(got.mlp), math.Float64frombits(got.midMLP), name,
			math.Float64frombits(ref.mlp), math.Float64frombits(ref.midMLP))
	}
	if got.counters != ref.counters {
		t.Errorf("counters differ %s:\n%s\nstepping through done:\n%s", name, got.counters, ref.counters)
	}
	if got.pj != ref.pj {
		t.Errorf("energy differs %s:\n%s\nstepping through done:\n%s", name, got.pj, ref.pj)
	}
}

// TestScratchpadCompletesInDatapath: a scratchpad reports its fixed access
// latency, so an invocation on it completes every access inside the
// datapath and the engine holds no event after any step.
func TestScratchpadCompletesInDatapath(t *testing.T) {
	eng := sim.NewEngine()
	pad := scratchpad.New(eng, "spad0", scratchpad.Config{SizeBytes: 4 << 10, AccessLat: 1},
		nil, stats.NewSet())
	its := iters(16, 2, 1, 4)
	for _, it := range its {
		for _, va := range it.Loads {
			pad.Fill(va, 1)
		}
	}
	a := New(eng, "axc0", DefaultConfig(), energy.Default(), nil, stats.NewSet())
	fired := false
	a.Start(&trace.Invocation{Iterations: its}, pad, func(uint64) { fired = true })
	for !fired && eng.Now() < 10_000 {
		eng.Step()
		if n := eng.Pending(); n != 0 {
			t.Fatalf("%d events pending after the step to cycle %d", n, eng.Now())
		}
	}
	if !fired {
		t.Fatal("invocation never completed")
	}
}

// TestStalledDatapathSleeps: with an event due every cycle, so that the
// engine steps every cycle, a datapath stalled on a long-latency port is
// not ticked from the cycle it stalls until the completion: no tick settles
// its accounting in between, and its busy cycles still count every cycle.
func TestStalledDatapathSleeps(t *testing.T) {
	eng := sim.NewEngine()
	var beat func(uint64)
	beat = func(uint64) { eng.Schedule(1, beat) }
	eng.Schedule(0, beat)
	a := New(eng, "axc0", DefaultConfig(), energy.Default(), nil, stats.NewSet())
	var doneAt uint64
	fired := false
	a.Start(&trace.Invocation{Iterations: iters(1, 1, 0, 1)}, &fakePort{eng: eng, latency: 100},
		func(now uint64) { doneAt, fired = now, true })
	eng.Run(50, nil)
	// The tick at cycle 0 issued the load and settled that cycle; a tick in
	// any later cycle would have settled it too.
	if eng.Steps() != 50 || a.busyCycles != 1 || a.BusyCycles() != 50 {
		t.Fatalf("after %d stepped cycles: %d busy cycles settled, %d counted; want 1 and 50",
			eng.Steps(), a.busyCycles, a.BusyCycles())
	}
	if _, ok := eng.Run(1000, func() bool { return fired }); !ok || doneAt != 100 || a.BusyCycles() != 101 {
		t.Fatalf("completed (%v) at %d with %d busy cycles, want at 100 with 101", ok, doneAt, a.BusyCycles())
	}
}
