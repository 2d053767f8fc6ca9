package accel

// Equivalence of the event-driven datapath under the engine's fast-forward:
// an invocation run with eng.Run (which skips the cycles a stalled datapath
// reports idle) must report exactly what a manual eng.Step loop (which
// never skips) reports.

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

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

// tickPort completes each access latency cycles after it issues, from its
// own Tick. Registered after the accelerator, it delivers completions once
// the datapath has already ticked in that cycle, which an event-driven port
// never does.
type tickPort struct {
	eng     *sim.Engine
	latency uint64
	pending []tickDone // in completion order: the latency is fixed
}

type tickDone struct {
	at   uint64
	done func(uint64)
}

func (p *tickPort) Access(_ mem.AccessKind, _ mem.VAddr, done func(uint64)) bool {
	p.pending = append(p.pending, tickDone{p.eng.Now() + p.latency, done})
	return true
}

func (p *tickPort) Name() string { return "tickport" }
func (p *tickPort) Idle() bool   { return len(p.pending) == 0 || p.pending[0].at > p.eng.Now() }

func (p *tickPort) WakeAt(uint64) (uint64, bool) {
	if len(p.pending) == 0 {
		return 0, false
	}
	return p.pending[0].at, true
}

func (p *tickPort) Tick(now uint64) {
	for len(p.pending) > 0 && p.pending[0].at <= now {
		d := p.pending[0]
		p.pending = p.pending[1:]
		d.done(now)
	}
}

// sampler is an always-idle ticker, registered ahead of the accelerator, that
// counts the cycles the engine steps and, on each, samples what the
// datapath's per-cycle accounting should charge for that cycle. Under
// per-cycle stepping its totals are an independent reference.
type sampler struct {
	a                  *Accelerator
	steps, busy        uint64
	mlpSamples, mlpSum uint64
}

func (p *sampler) Name() string { return "sampler" }
func (p *sampler) Idle() bool   { return true }

func (p *sampler) Tick(uint64) {
	p.steps++
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
	probe        sampler
}

// runReport runs tc's invocation to completion, by eng.Run when skip is set
// and by a manual Step loop otherwise, reading the accounting once at a
// cycle in mid-invocation.
func runReport(t *testing.T, tc *skipCase, skip bool) report {
	t.Helper()
	const mid, limit = 37, 1 << 20
	eng := sim.NewEngine()
	probe := &sampler{}
	eng.Register(probe)
	st, mt := stats.NewSet(), energy.NewMeter()
	a := New(eng, "axc0", tc.cfg, energy.Default(), mt, st)
	probe.a = a
	var port MemPort = &fakePort{eng: eng, latency: tc.latency, rejectFirst: tc.reject}
	if tc.fromTick {
		tp := &tickPort{eng: eng, latency: tc.latency}
		eng.Register(tp)
		port = tp
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
	if fp, ok := port.(*fakePort); ok && fp.rejectFirst != 0 {
		t.Fatalf("port still owes %d rejections", fp.rejectFirst)
	}
	r.busy, r.mlp = a.BusyCycles(), math.Float64bits(a.AvgMLP())
	var b strings.Builder
	st.Dump(&b)
	r.counters = b.String()
	b.Reset()
	mt.Dump(&b)
	r.pj = b.String()
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
		{name: "long-latency", cfg: DefaultConfig(), inv: inv(iters(24, 2, 1, 4)), latency: 80, skips: true},
		{name: "mlp-1", cfg: mlp1, inv: inv(iters(16, 3, 1, 4)), latency: 30, skips: true},
		{name: "mlp-cap-merging", cfg: mlp2, inv: inv(randomIters(2, 60)), latency: 17},
		{name: "serial", cfg: DefaultConfig(), inv: serial(iters(20, 1, 1, 4)), latency: 20, skips: true},
		{name: "serial-random", cfg: DefaultConfig(), inv: serial(randomIters(3, 40)), latency: 9},
		{name: "compute-heavy", cfg: DefaultConfig(), inv: inv(iters(8, 1, 1, 400)), latency: 3, skips: true},
		{name: "compute-heavy-depth-1", cfg: depth1, inv: inv(iters(8, 1, 1, 120)), latency: 3, skips: true},
		{name: "zero-load", cfg: DefaultConfig(), inv: inv(iters(16, 0, 2, 12)), latency: 6},
		{name: "zero-load-zero-store", cfg: DefaultConfig(), inv: inv(iters(8, 0, 0, 9))},
		{name: "no-iterations", cfg: DefaultConfig()},
		{name: "back-pressure", cfg: DefaultConfig(), inv: inv(iters(6, 2, 1, 1)), latency: 12, reject: 7},
		{name: "back-pressure-random", cfg: mlp2, inv: inv(randomIters(4, 30)), latency: 25, reject: 40},
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
			skip, step := runReport(t, tc, true), runReport(t, tc, false)
			if skip.doneAt != step.doneAt {
				t.Errorf("completion cycle %d under skipping, %d stepping", skip.doneAt, step.doneAt)
			}
			if skip.busy != step.busy || skip.midBusy != step.midBusy {
				t.Errorf("BusyCycles %d (mid %d) under skipping, %d (mid %d) stepping",
					skip.busy, skip.midBusy, step.busy, step.midBusy)
			}
			if skip.mlp != step.mlp || skip.midMLP != step.midMLP {
				t.Errorf("AvgMLP %v (mid %v) under skipping, %v (mid %v) stepping",
					math.Float64frombits(skip.mlp), math.Float64frombits(skip.midMLP),
					math.Float64frombits(step.mlp), math.Float64frombits(step.midMLP))
			}
			if skip.counters != step.counters {
				t.Errorf("counters differ:\nskip:\n%s\nstep:\n%s", skip.counters, step.counters)
			}
			if skip.pj != step.pj {
				t.Errorf("energy differs:\nskip:\n%s\nstep:\n%s", skip.pj, step.pj)
			}
			// Per-cycle stepping charges exactly what the sampler saw.
			ref := step.probe
			refMLP := 0.0
			if ref.mlpSamples > 0 {
				refMLP = float64(ref.mlpSum) / float64(ref.mlpSamples)
			}
			if step.busy != ref.busy || step.mlp != math.Float64bits(refMLP) {
				t.Errorf("stepping charged %d busy cycles at AvgMLP %v; the sampler saw %d at %v",
					step.busy, math.Float64frombits(step.mlp), ref.busy, refMLP)
			}
			if tc.skips && skip.probe.steps*2 > skip.doneAt {
				t.Errorf("stepped %d of %d cycles; the stalled datapath was not skipped",
					skip.probe.steps, skip.doneAt)
			}
		})
	}
}
