package scratchpad

import (
	"fmt"

	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// DMA is the oracle coherent DMA engine. It lives at the host LLC as a
// non-caching fabric agent: reads pull the most up-to-date data through the
// directory (downgrading an owner if necessary, as ARM's ACP and IBM's
// coherent attach do, Section 2.1) and writes invalidate stale copies
// before committing at the LLC.
type DMA struct {
	agent  mesi.AgentID
	fabric *mesi.Fabric
	pool   *mesi.MsgPool    // the fabric's
	pumpFn func(now uint64) // cached retry callback

	cReads  *stats.Counter
	cWrites *stats.Counter

	maxOutstanding int
	outstanding    int
	// gap is the controller's per-transfer occupancy: after issuing one
	// transfer the state machine is busy for gap cycles before the next.
	gap       uint64
	nextIssue uint64
	queue     []dmaOp

	// pending transfers are bounded by maxOutstanding (a handful), so
	// linearly-scanned slices with swap-delete replace the former maps.
	pendingReads  []pendingRead
	pendingWrites []pendingWrite
	freeOnVer     [][]func(uint64) // recycled callback slices
}

type dmaOp struct {
	write bool
	pa    mem.PAddr
	ver   uint64
	delta bool
	onVer func(ver uint64) // reads: data arrival callback
	done  func(now uint64) // writes: ack callback
}

// pendingRead collects the callbacks of (possibly merged) reads of one line.
type pendingRead struct {
	pa    mem.PAddr
	onVer []func(uint64)
}

type pendingWrite struct {
	pa   mem.PAddr
	done func(now uint64)
}

// NewDMA registers the engine as agent id on the fabric. gap is the
// controller's per-transfer occupancy in cycles.
func NewDMA(fabric *mesi.Fabric, id mesi.AgentID, maxOutstanding int, gap uint64, st *stats.Set) *DMA {
	d := &DMA{
		agent:          id,
		fabric:         fabric,
		pool:           fabric.Pool(),
		maxOutstanding: maxOutstanding,
		gap:            gap,
		cReads:         st.Counter("dma.reads"),
		cWrites:        st.Counter("dma.writes"),
	}
	d.pumpFn = func(uint64) { d.pump() }
	fabric.Register(id, d.Handle)
	return d
}

// ReadLine fetches one line; onVer fires with the coherent data version.
func (d *DMA) ReadLine(pa mem.PAddr, onVer func(ver uint64)) {
	d.queue = append(d.queue, dmaOp{pa: pa.LineAddr(), onVer: onVer})
	d.cReads.Inc()
	d.pump()
}

// WriteLine commits one line at the LLC; done fires on the ack. delta marks
// ver as an increment for write-allocated lines (see scratchpad.DirtyLine).
func (d *DMA) WriteLine(pa mem.PAddr, ver uint64, delta bool, done func(now uint64)) {
	d.queue = append(d.queue, dmaOp{write: true, pa: pa.LineAddr(), ver: ver, delta: delta, done: done})
	d.cWrites.Inc()
	d.pump()
}

// Transfers counts the line reads and writes issued so far.
func (d *DMA) Transfers() int64 { return d.cReads.Value() + d.cWrites.Value() }

// Idle reports whether all issued transfers have completed.
func (d *DMA) Idle() bool {
	return d.outstanding == 0 && len(d.queue) == 0
}

// pump issues queued transfers up to the outstanding limit, pacing issues
// by the controller gap.
func (d *DMA) pump() {
	for d.outstanding < d.maxOutstanding && len(d.queue) > 0 {
		now := d.fabric.Now()
		if now < d.nextIssue {
			d.fabric.Engine().ScheduleAt(d.nextIssue, d.pumpFn)
			return
		}
		d.nextIssue = now + d.gap
		op := d.queue[0]
		d.queue = d.queue[1:]
		d.outstanding++
		if op.write {
			if d.writeFind(op.pa) >= 0 {
				sim.Failf("dma", d.fabric.Now(), d.DumpState(), "overlapping writes to %s", op.pa)
			}
			d.pendingWrites = append(d.pendingWrites, pendingWrite{op.pa, op.done})
			w := d.pool.Get()
			w.Type, w.Addr, w.Src, w.Dst = mesi.MsgDMAWrite, op.pa, d.agent, mesi.DirID
			w.Ver, w.Delta = op.ver, op.delta
			d.fabric.Send(w)
			continue
		}
		i := d.readFind(op.pa)
		if i < 0 {
			var ov []func(uint64)
			if n := len(d.freeOnVer); n > 0 {
				ov = d.freeOnVer[n-1]
				d.freeOnVer = d.freeOnVer[:n-1]
			}
			d.pendingReads = append(d.pendingReads, pendingRead{pa: op.pa, onVer: ov})
			i = len(d.pendingReads) - 1
			r := d.pool.Get()
			r.Type, r.Addr, r.Src, r.Dst = mesi.MsgDMARead, op.pa, d.agent, mesi.DirID
			d.fabric.Send(r)
		} else {
			// Merged duplicate read; it resolves with the first response.
			d.outstanding--
		}
		d.pendingReads[i].onVer = append(d.pendingReads[i].onVer, op.onVer)
	}
}

// Handle receives directory responses and releases them after the (fully
// synchronous) handling. A read for a line owned modified by a cache arrives
// as a plain Data message from the owner (3-hop), so both forms resolve the
// same pending read.
func (d *DMA) Handle(m *mesi.Msg) {
	defer d.pool.Put(m)
	switch m.Type {
	case mesi.MsgDMAReadResp, mesi.MsgData, mesi.MsgDataE, mesi.MsgDataM:
		pa := m.Addr.LineAddr()
		i := d.readFind(pa)
		if i < 0 {
			sim.Failf("dma", d.fabric.Now(), d.DumpState(), "unexpected data for %s", pa)
		}
		ov := d.pendingReads[i].onVer
		last := len(d.pendingReads) - 1
		d.pendingReads[i] = d.pendingReads[last]
		d.pendingReads[last] = pendingRead{}
		d.pendingReads = d.pendingReads[:last]
		d.outstanding--
		for j, f := range ov {
			f(m.Ver)
			ov[j] = nil
		}
		d.freeOnVer = append(d.freeOnVer, ov[:0])
		d.pump()
	case mesi.MsgDMAWriteAck:
		pa := m.Addr.LineAddr()
		i := d.writeFind(pa)
		if i < 0 {
			sim.Failf("dma", d.fabric.Now(), d.DumpState(), "unexpected write ack for %s", pa)
		}
		done := d.pendingWrites[i].done
		last := len(d.pendingWrites) - 1
		d.pendingWrites[i] = d.pendingWrites[last]
		d.pendingWrites[last] = pendingWrite{}
		d.pendingWrites = d.pendingWrites[:last]
		d.outstanding--
		if done != nil {
			done(d.fabric.Now())
		}
		d.pump()
	case mesi.MsgInvAck:
		// A DMARead raced with nothing we track; ignore defensively.
	default:
		sim.Failf("dma", d.fabric.Now(), d.DumpState(), "unexpected %s", m)
	}
}

// readFind returns the index of pa's pending read, or -1.
func (d *DMA) readFind(pa mem.PAddr) int {
	for i := range d.pendingReads {
		if d.pendingReads[i].pa == pa {
			return i
		}
	}
	return -1
}

// writeFind returns the index of pa's pending write, or -1.
func (d *DMA) writeFind(pa mem.PAddr) int {
	for i := range d.pendingWrites {
		if d.pendingWrites[i].pa == pa {
			return i
		}
	}
	return -1
}

// DumpState summarizes in-flight DMA transfers for failure diagnostics.
// Empty when the engine is idle.
func (d *DMA) DumpState() string {
	if d.Idle() && len(d.pendingReads) == 0 && len(d.pendingWrites) == 0 {
		return ""
	}
	return fmt.Sprintf("dma: %d outstanding, %d queued, %d pending reads, %d pending writes\n",
		d.outstanding, len(d.queue), len(d.pendingReads), len(d.pendingWrites))
}
