package systems

// The ADAPTIVE system: Cohmeleon-style per-task placement (PAPERS.md).
// Every accelerator task is profiled over a bounded decision window and a
// Policy picks where its data lives for the task's duration:
//
//   - PlaceL0X:      the FUSION lease hierarchy (private L0X over the
//                    shared L1X);
//   - PlaceScratch:  a software-managed scratchpad with oracle-windowed
//                    DMA, like SCRATCH;
//   - PlaceUncached: no on-tile allocation at all — every access is one
//                    coherent round trip at the LLC.
//
// A line may migrate placement between tasks (scratchpad in one phase,
// L0X-cached in the next). Visibility stays sound because every placement
// is coherent at phase granularity: the L0X path drains its leases at task
// end, the scratchpad path DMA-drains its dirty lines at window end, and
// the uncached path commits every store at the LLC before it completes —
// so the next epoch always begins from the globally-ordered image. The
// litmus placement-migration case pins this down.

import (
	"fmt"

	"fusion/internal/acc"
	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/scratchpad"
	"fusion/internal/stats"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// uncachedOp is one queued access of an uncachedPort line.
type uncachedOp struct {
	kind mem.AccessKind
	va   mem.VAddr
	done func(now uint64)
}

// lineQueue is a line's serialization state: busy while one op is in
// flight, with the ops queued behind it. Entries are never deleted — a
// drained line parks as {busy: false, q: q[:0]}, so steady state never
// reallocates.
type lineQueue struct {
	busy bool
	q    []uncachedOp
}

// uncachedPort implements accel.MemPort for the uncached placement: loads
// pull the coherent version through the directory, stores commit at the
// LLC as version deltas. Operations on one line are serialized — the DMA
// engine rejects overlapping writes, and serialization keeps the strict
// observation stream in version order.
type uncachedPort struct {
	m    *machine
	dma  *scratchpad.DMA
	name string
	obsv obs.Observer
	// inflight holds each line's serialization state.
	inflight  *flat.Map[lineQueue]
	cAccesses *stats.Counter
}

func (p *uncachedPort) Access(kind mem.AccessKind, va mem.VAddr, done func(uint64)) bool {
	p.cAccesses.Inc()
	la := uint64(va.LineAddr())
	op := uncachedOp{kind: kind, va: va, done: done}
	if l := p.inflight.Ptr(la); l != nil {
		if l.busy {
			l.q = append(l.q, op)
			return true
		}
		l.busy = true
	} else {
		p.inflight.Put(la, lineQueue{busy: true})
	}
	p.issue(la, op)
	return true
}

func (p *uncachedPort) issue(la uint64, op uncachedOp) {
	pa := p.m.translate(mem.VAddr(la))
	if op.kind == mem.Store {
		// One store = one +1 version delta accumulated at the LLC, the
		// same commit rule the scratchpad drain uses for write-allocated
		// lines.
		p.dma.WriteLine(pa, 1, true, func(now uint64) {
			if p.obsv != nil {
				p.obsv.Record(obs.Event{Cycle: now, Agent: p.name,
					Addr: uint64(op.va), Ver: 1, Kind: obs.Store, Delta: true})
			}
			op.done(now)
			p.next(la)
		})
		return
	}
	p.dma.ReadLine(pa, func(ver uint64) {
		now := p.m.eng.Now()
		if p.obsv != nil {
			// Lease zero: an uncached read is a strict observation — it
			// must see the latest globally-ordered version.
			p.obsv.Record(obs.Event{Cycle: now, Agent: p.name,
				Addr: uint64(op.va), Ver: ver, Kind: obs.Load})
		}
		op.done(now)
		p.next(la)
	})
}

func (p *uncachedPort) next(la uint64) {
	l := p.inflight.Ptr(la)
	if len(l.q) == 0 {
		l.busy = false
		return
	}
	op := l.q[0]
	copy(l.q, l.q[1:])
	l.q = l.q[:len(l.q)-1]
	p.issue(la, op)
}

// --------------------------------------------------------------- ADAPTIVE

func runAdaptive(m *machine, b *workloads.Benchmark, cfg Config, res *Result) error {
	pol, err := newPolicy(cfg.Policy)
	if err != nil {
		return err
	}

	// One tile collocating every AXC (the paper's placement; the Tiles
	// knob is a FUSION-specific ablation and is ignored here).
	tile := newTile(m, cfg, 0, b.Program.NumAXCs())
	dma := scratchpad.NewDMA(m.fab, dmaAgent, cfg.DMAOutstanding, cfg.DMAGap, m.st)
	m.dma = dma
	axcs := accelFor(m, b)
	pads := newPads(m, cfg, axcs)
	live := newLiveSet(b)
	ports := make([]*uncachedPort, len(axcs))
	cUncached := m.st.Counter("adaptive.uncached.accesses")
	for axc, ax := range axcs {
		if ax == nil {
			continue
		}
		ports[axc] = &uncachedPort{m: m, dma: dma,
			name:      fmt.Sprintf("uncached%d", axc),
			obsv:      cfg.Observer,
			inflight:  flat.New[lineQueue](256),
			cAccesses: cUncached,
		}
	}
	cPlace := [3]*stats.Counter{
		PlaceL0X:      m.st.Counter("adaptive.place_l0x"),
		PlaceScratch:  m.st.Counter("adaptive.place_scratch"),
		PlaceUncached: m.st.Counter("adaptive.place_uncached"),
	}

	// lastToucher feeds the sharing counter: which agent (AXC id, or the
	// host) touched each line most recently in an earlier phase.
	lastToucher := make(map[mem.VAddr]int)
	for _, va := range b.InputLines {
		lastToucher[va.LineAddr()] = hostToucher
	}

	var (
		prof       TaskProfile
		place      Placement
		sticky     Placement
		haveSticky bool
	)
	err = runPhases(m, b, cfg, res, phaseHooks{
		// The placement check is charged before the phase's marks, so a
		// phase's energy excludes it.
		prepare: func(inv *trace.Invocation) {
			prof = profileTask(inv, cfg.DecisionWindow,
				pads[inv.AXC].CapacityLines(), lastToucher)
			place = pol.Place(prof)
			if cfg.PolicyMutations != nil && cfg.PolicyMutations.StickyPlacement {
				if haveSticky {
					place = sticky
				} else {
					sticky, haveSticky = place, true
				}
			}
			m.mt.Add(energy.CatPolicy, m.model.PolicyCheck)
			cPlace[place].Inc()
		},
		exec: func(_ int, inv *trace.Invocation) (uint64, error) {
			ax := axcs[inv.AXC]
			var err error
			switch place {
			case PlaceScratch:
				return runScratchWindows(m, cfg, ax, pads[inv.AXC], dma, inv, live)
			case PlaceUncached:
				err = m.await(func(done func(uint64)) { ax.Start(inv, ports[inv.AXC], done) })
				if err != nil {
					err = fmt.Errorf("%s uncached: %w", inv.Function, err)
				}
			case PlaceL0X:
				err = runL0X(m, cfg, ax, tile.L0Xs[inv.AXC], inv)
			}
			return 0, err
		},
		after: func(inv *trace.Invocation, r PhaseResult) {
			if r.AXC >= 0 {
				pol.Observe(prof, place, r.Cycles)
			}
			lines, _ := inv.Lines()
			for _, la := range lines {
				lastToucher[la] = r.AXC // hostToucher for a host phase
			}
			live.add(inv)
		},
	})
	if err != nil {
		return err
	}
	return drainTiles(m, b, cfg, []*acc.Tile{tile})
}
