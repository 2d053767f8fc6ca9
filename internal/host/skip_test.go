package host

// Equivalence of the ready-bitmap core under the engine's fast-forward: a
// host phase run with eng.Run (which skips the cycles a stalled core
// sleeps through) must report exactly what a manual eng.Step loop with
// idle-skip off (which never skips and ticks the core every cycle)
// reports, refused L1 accesses included.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
	"fusion/internal/vm"
)

// randomIters builds n iterations of 0-4 loads over a few dozen lines, so
// some hit and some merge in the L1's MSHRs, with 0-11 integer ops, 0-5
// floating-point ops and 0-2 stores each.
func randomIters(seed int64, n int) []trace.Iteration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]trace.Iteration, n)
	for i := range out {
		for j := rng.Intn(5); j > 0; j-- {
			out[i].Loads = append(out[i].Loads, mem.VAddr(rng.Intn(40)*64+rng.Intn(8)*8))
		}
		out[i].IntOps = rng.Intn(12)
		out[i].FPOps = rng.Intn(6)
		for j := rng.Intn(3); j > 0; j-- {
			out[i].Stores = append(out[i].Stores, mem.VAddr((64+rng.Intn(24))*64))
		}
	}
	return out
}

// fpIters builds n iterations of one load, fp floating-point ops and one
// store.
func fpIters(n, fp int) []trace.Iteration {
	out := seqIters(n, 1, 0, 1)
	for i := range out {
		out[i].FPOps = fp
	}
	return out
}

// coreSampler is a ticker, registered ahead of the core under per-cycle
// stepping, that counts the cycles stepped with a phase loaded: an
// independent reference for BusyCycles. With reissue set it also clears
// every op's refusal mark, so that the core offers the L1 every refused
// access again on every cycle.
type coreSampler struct {
	c       *Core
	busy    uint64
	reissue bool
}

func (p *coreSampler) Name() string { return "sampler" }

func (p *coreSampler) Tick(uint64) {
	if p.c.inv != nil {
		p.busy++
	}
	if p.reissue {
		for i := p.c.head; i < p.c.dispatch; i++ {
			p.c.ops[i].refused = false
		}
	}
}

// hostCase is one host phase, run twice (the second time over a warm L1),
// on a core and L1 configuration.
type hostCase struct {
	name  string
	cfg   Config
	mshrs int // L1 MSHRs; 0 keeps the default
	inv   trace.Invocation
	skips bool // the fast-forward must skip at least half the first phase
	peer  []peerOp
	ways  int // when set, the L1 is one set of this many ways
}

// peerOp is one access of a second L1 on the fabric, made before the first
// phase starts when at is 0 and otherwise at cycles after it started. The
// peer shares lines with the host L1 (which then holds them Shared) and
// invalidates them.
type peerOp struct {
	at   uint64
	kind mem.AccessKind
	va   mem.VAddr
}

// sharedLine is the line the peer L1 shares with the host L1.
const sharedLine = mem.VAddr(1 << 16)

// lruIters loads sharedLine, then a line y, then stores to sharedLine once
// a second load of y completes, and loads a line z, whose miss comes before
// the store and refuses it. Integer ops then fill the ROB, so that a third
// load of y dispatches, and hits, only after the store's first refusal.
// Each refusal refreshes sharedLine's LRU stamp, so in a one-set, two-way
// L1 z's fill evicts y, not sharedLine.
func lruIters() []trace.Iteration {
	const y, z = sharedLine + 1<<12, sharedLine + 2<<12
	return []trace.Iteration{
		{Loads: []mem.VAddr{sharedLine}},
		{Loads: []mem.VAddr{y}},
		{Loads: []mem.VAddr{y}, Stores: []mem.VAddr{sharedLine}},
		{Loads: []mem.VAddr{z}},
		{IntOps: 92},
		{Loads: []mem.VAddr{y}},
	}
}

// invalidateAt is when the peer's store to sharedLine is made: its
// invalidation reaches the host L1 about 20 cycles later, inside the 34 to
// 281 cycles after the phase started in which the host's store is refused
// with its line Shared; from then on it is refused as a clean miss.
const invalidateAt = 100

// sharedStoreIters loads sharedLine, computes, and stores to it, which
// upgrades the host's Shared copy, while the loads of the n iterations
// after it keep a 1-MSHR L1 busy, so the store is refused with its line
// resident.
func sharedStoreIters(n int) []trace.Iteration {
	return append([]trace.Iteration{{Loads: []mem.VAddr{sharedLine}, IntOps: 2,
		Stores: []mem.VAddr{sharedLine}}}, seqIters(n, 1, 0, 0)...)
}

// hostReport is everything the two phases expose.
type hostReport struct {
	doneAt, midBusy, busy [2]uint64 // per phase; midBusy read mid-phase
	firstSteps            uint64    // cycles stepped during the first phase
	refused               int64     // L1 accesses refused for a full MSHR
	invalidations         int64     // invalidations the host L1 received
	translations          int       // calls of the translate function
	counters, pj          string
	probe                 coreSampler
}

// runHost runs tc's phase twice, by eng.Run when skip is set and otherwise
// by a manual Step loop with idle-skip off and a sampler ticking ahead of
// the core, reading BusyCycles once mid-phase. With reissue set (stepping
// only), the core re-offers every refused access every cycle.
func runHost(t *testing.T, tc *hostCase, skip, reissue bool) hostReport {
	t.Helper()
	const mid, limit = 41, 1 << 22
	eng := sim.NewEngine()
	probe := &coreSampler{reissue: reissue}
	if !skip {
		eng.SetIdleSkip(false)
		eng.Register(probe)
	}
	st, mt, model := stats.NewSet(), energy.NewMeter(), energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	l1cfg := mesi.DefaultHostL1Config(model)
	if tc.mshrs > 0 {
		l1cfg.MSHRs = tc.mshrs
	}
	if tc.ways > 0 {
		l1cfg.Cache.Ways, l1cfg.Cache.SizeBytes = tc.ways, tc.ways*l1cfg.Cache.LineBytes
	}
	l1 := mesi.NewClient(fab, 1, l1cfg, model, mt, st)
	c := New(eng, "hostcore", tc.cfg, l1, st)
	probe.c = c
	pt := vm.NewPageTable()
	var peer *mesi.Client
	if len(tc.peer) > 0 {
		pcfg := mesi.DefaultHostL1Config(model)
		pcfg.Name, pcfg.EnergyCategory = "peerl1", energy.CatL1X
		peer = mesi.NewClient(fab, 2, pcfg, model, mt, st)
	}
	peerAccess := func(op peerOp) {
		if !peer.Access(op.kind, pt.Translate(1, op.va), func(uint64) {}) {
			t.Fatalf("the peer L1 refused %v", op)
		}
	}
	var r hostReport
	translate := func(va mem.VAddr) mem.PAddr {
		r.translations++
		return pt.Translate(1, va)
	}
	advance := func(until uint64, pred func() bool) {
		if skip {
			eng.Run(until-eng.Now(), pred)
			return
		}
		for eng.Now() < until && (pred == nil || !pred()) {
			eng.Step()
		}
	}
	for _, op := range tc.peer {
		if op.at == 0 {
			peerAccess(op)
		}
	}
	if peer != nil {
		advance(limit, func() bool { return peer.Outstanding() == 0 })
		for _, op := range tc.peer {
			if op.at > 0 {
				eng.Schedule(op.at, func(uint64) { peerAccess(op) })
			}
		}
	}
	for ph := 0; ph < 2; ph++ {
		fired := false
		c.Start(&tc.inv, translate, func(now uint64) {
			r.doneAt[ph], fired = now, true
			if ph == 0 {
				r.firstSteps = eng.Steps()
			}
		})
		advance(eng.Now()+mid, nil)
		r.midBusy[ph] = c.BusyCycles()
		advance(limit, func() bool { return fired })
		if !fired {
			t.Fatalf("phase %d never completed (skip=%v)", ph, skip)
		}
		r.busy[ph] = c.BusyCycles()
	}
	r.refused = st.Get(l1cfg.Name + ".mshr_full")
	r.invalidations = st.Get(l1cfg.Name + ".invalidations")
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
	with := func(f func(*Config)) Config {
		cfg := DefaultConfig()
		f(&cfg)
		return cfg
	}
	inv := func(its []trace.Iteration) trace.Invocation { return trace.Invocation{Iterations: its} }
	cases := []hostCase{
		{name: "default", cfg: DefaultConfig(), inv: inv(seqIters(40, 2, 6, 1))},
		{name: "rob-limited", cfg: with(func(c *Config) { c.ROB = 8 }), inv: inv(seqIters(30, 1, 4, 1)), skips: true},
		{name: "lq-full", cfg: with(func(c *Config) { c.LQ = 2 }), inv: inv(seqIters(20, 4, 2, 0)), skips: true},
		{name: "sq-full", cfg: with(func(c *Config) { c.SQ = 1 }), inv: inv(seqIters(20, 0, 1, 3)), skips: true},
		{name: "mshr-1", cfg: DefaultConfig(), mshrs: 1, inv: inv(seqIters(20, 3, 2, 1))},
		{name: "mshr-2-random", cfg: DefaultConfig(), mshrs: 2, inv: inv(randomIters(1, 60))},
		{name: "zero-load", cfg: DefaultConfig(), inv: inv(seqIters(20, 0, 8, 2))},
		{name: "zero-load-zero-store", cfg: DefaultConfig(), inv: inv(seqIters(10, 0, 5, 0))},
		{name: "fp-heavy", cfg: DefaultConfig(), inv: inv(fpIters(24, 14)), skips: true},
		{name: "fp-heavy-narrow", cfg: with(func(c *Config) { c.FPUs = 1; c.IntALUs = 1 }), inv: inv(fpIters(12, 9))},
		{name: "stores-no-compute", cfg: DefaultConfig(), inv: inv(seqIters(20, 2, 0, 2))},
		{name: "stores-only", cfg: with(func(c *Config) { c.SQ = 4 }), inv: inv(seqIters(16, 0, 0, 3)), skips: true},
		{name: "no-iterations", cfg: DefaultConfig()},
		{name: "empty-iterations", cfg: DefaultConfig(), inv: inv(make([]trace.Iteration, 5))},
		{name: "random", cfg: DefaultConfig(), inv: inv(randomIters(2, 120)), skips: true},
		{name: "refused-store-to-shared", cfg: DefaultConfig(), mshrs: 1, inv: inv(sharedStoreIters(6)),
			peer: []peerOp{{kind: mem.Load, va: sharedLine}}},
		{name: "invalidation-on-refused-line", cfg: DefaultConfig(), mshrs: 1, inv: inv(sharedStoreIters(6)),
			peer: []peerOp{{kind: mem.Load, va: sharedLine}, {at: invalidateAt, kind: mem.Store, va: sharedLine}}},
		{name: "refused-store-keeps-its-line", cfg: DefaultConfig(), mshrs: 1, ways: 2, inv: inv(lruIters()),
			peer: []peerOp{{kind: mem.Load, va: sharedLine}}},
	}
	for seed := int64(10); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Width: 1 + rng.Intn(4), ROB: 4 + rng.Intn(60), LQ: 1 + rng.Intn(8),
			SQ: 1 + rng.Intn(8), IntALUs: 1 + rng.Intn(4), FPUs: 1 + rng.Intn(2)}
		cases = append(cases, hostCase{name: fmt.Sprintf("random-%d", seed), cfg: cfg,
			mshrs: 1 + rng.Intn(4), inv: inv(randomIters(seed, 40+rng.Intn(40)))})
	}
	for i := range cases {
		tc := &cases[i]
		t.Run(tc.name, func(t *testing.T) {
			skip, step := runHost(t, tc, true, false), runHost(t, tc, false, false)
			// Charging the refusals of a clean miss instead of re-offering
			// the access changes nothing.
			if ref := runHost(t, tc, false, true); step.doneAt != ref.doneAt ||
				step.counters != ref.counters || step.pj != ref.pj {
				t.Errorf("refusals charged: done at %v,\n%s%s\nre-offered: done at %v,\n%s%s",
					step.doneAt, step.counters, step.pj, ref.doneAt, ref.counters, ref.pj)
			}
			if skip.doneAt != step.doneAt {
				t.Errorf("commit cycles %v under skipping, %v stepping", skip.doneAt, step.doneAt)
			}
			if skip.busy != step.busy || skip.midBusy != step.midBusy {
				t.Errorf("BusyCycles %v (mid %v) under skipping, %v (mid %v) stepping",
					skip.busy, skip.midBusy, step.busy, step.midBusy)
			}
			if skip.counters != step.counters {
				t.Errorf("counters differ:\nskip:\n%s\nstep:\n%s", skip.counters, step.counters)
			}
			if skip.pj != step.pj {
				t.Errorf("energy differs:\nskip:\n%s\nstep:\n%s", skip.pj, step.pj)
			}
			// Per-cycle stepping charges exactly the cycles the sampler saw
			// with a phase loaded.
			if step.busy[1] != step.probe.busy {
				t.Errorf("stepping charged %d busy cycles; the sampler saw %d", step.busy[1], step.probe.busy)
			}
			if tc.mshrs == 1 && step.refused == 0 {
				t.Error("the 1-MSHR L1 refused no access; the case exercises no back-pressure")
			}
			for _, op := range tc.peer {
				if op.kind == mem.Store && step.invalidations == 0 {
					t.Error("the peer's store did not invalidate the host's copy")
				}
			}
			// Each load or store translates once per phase, however often
			// a full L1 refuses it.
			memOps := 0
			for _, it := range tc.inv.Iterations {
				memOps += len(it.Loads) + len(it.Stores)
			}
			for _, r := range []hostReport{skip, step} {
				if r.translations != 2*memOps {
					t.Errorf("%d translations for %d loads and stores in two phases", r.translations, 2*memOps)
				}
			}
			if tc.skips && skip.firstSteps*2 > skip.doneAt[0] {
				t.Errorf("stepped %d of %d cycles; the stalled core was not skipped",
					skip.firstSteps, skip.doneAt[0])
			}
		})
	}
}

// TestStalledCoreSleeps: with an event due every cycle, so that the engine
// steps every cycle, a core whose LQ is full of cold misses is not ticked
// until the first of them completes: no tick charges its busy cycles in
// between, and BusyCycles still counts every cycle.
func TestStalledCoreSleeps(t *testing.T) {
	eng := sim.NewEngine()
	var beat func(uint64)
	beat = func(uint64) { eng.Schedule(1, beat) }
	eng.Schedule(0, beat)
	st, mt, model := stats.NewSet(), energy.NewMeter(), energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	l1 := mesi.NewClient(fab, 1, mesi.DefaultHostL1Config(model), model, mt, st)
	cfg := DefaultConfig()
	cfg.LQ = 2
	c := New(eng, "hostcore", cfg, l1, st)
	pt := vm.NewPageTable()
	fired := false
	c.Start(&trace.Invocation{Iterations: seqIters(1, 4, 0, 0)},
		func(va mem.VAddr) mem.PAddr { return pt.Translate(1, va) }, func(uint64) { fired = true })
	eng.Run(50, nil)
	// The tick at cycle 0 dispatched the loads, filled the LQ and charged
	// that cycle; a tick in any later cycle would have charged it too.
	if eng.Steps() != 50 || c.inLQ != 2 || c.busy != 1 || c.BusyCycles() != 50 {
		t.Fatalf("after %d stepped cycles with %d loads in the LQ: %d busy cycles charged, %d counted; want 1 and 50",
			eng.Steps(), c.inLQ, c.busy, c.BusyCycles())
	}
	if _, ok := eng.Run(1_000_000, func() bool { return fired }); !ok {
		t.Fatal("phase never completed")
	}
}
