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

// uncachedOp is one access of an uncachedPort line.
type uncachedOp struct {
	kind mem.AccessKind
	va   mem.VAddr
	done func(now uint64)
}

// uncachedPort implements accel.MemPort for the uncached placement: loads
// pull the coherent version through the directory, stores commit at the
// LLC as version deltas. Operations on one line are serialized — the DMA
// engine fails a second transfer to a line with one pending, and
// serialization keeps the strict observation stream in version order. The
// port is the sink of its transfers, each tagged with its line.
type uncachedPort struct {
	m    *machine
	dma  *scratchpad.DMA
	name string
	obsv obs.Observer
	// lines holds each line's ops in arrival order; the head is in flight.
	// Entries are never deleted — a drained line parks as an empty queue,
	// so steady state never reallocates.
	lines     *flat.Map[[]uncachedOp]
	cAccesses *stats.Counter
}

func (p *uncachedPort) Access(kind mem.AccessKind, va mem.VAddr, done func(uint64)) bool {
	p.cAccesses.Inc()
	la := uint64(va.LineAddr())
	q := p.lines.Ptr(la)
	if q == nil {
		q = p.lines.Put(la, nil)
	}
	*q = append(*q, uncachedOp{kind: kind, va: va, done: done})
	if len(*q) == 1 {
		p.issue(la, kind)
	}
	return true
}

// issue hands line la's head op, of the given kind, to the DMA engine.
func (p *uncachedPort) issue(la uint64, kind mem.AccessKind) {
	pa := p.m.translate(mem.VAddr(la))
	if kind == mem.Store {
		// One store = one +1 version delta accumulated at the LLC, the
		// same commit rule the scratchpad drain uses for write-allocated
		// lines.
		p.dma.WriteLine(pa, 1, true, p, la)
		return
	}
	p.dma.ReadLine(pa, p, la)
}

// DMADone completes line la's head op — a load that read version ver, or a
// store whose delta committed — and issues the line's next op.
func (p *uncachedPort) DMADone(la, ver uint64) {
	op := (*p.lines.Ptr(la))[0]
	now := p.m.eng.Now()
	if p.obsv != nil {
		// Lease zero: an uncached load is a strict observation — it must
		// see the latest globally-ordered version. A store records its +1
		// delta.
		e := obs.Event{Cycle: now, Agent: p.name, Addr: uint64(op.va),
			Ver: ver, Kind: obs.Load}
		if op.kind == mem.Store {
			e.Ver, e.Kind, e.Delta = 1, obs.Store, true
		}
		p.obsv.Record(e)
	}
	op.done(now)
	q := p.lines.Ptr(la)
	*q = (*q)[:copy(*q, (*q)[1:])]
	if len(*q) > 0 {
		p.issue(la, (*q)[0].kind)
	}
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
			lines:     flat.New[[]uncachedOp](256),
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
