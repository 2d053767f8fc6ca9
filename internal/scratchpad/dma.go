package scratchpad

import (
	"fmt"

	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// DMASink receives the completions of the transfers queued for it. tag is
// the value the caller queued the transfer with; ver is the line's coherent
// version for a read and 0 for a write ack, which carries no version.
type DMASink interface {
	DMADone(tag, ver uint64)
}

// DMA is the oracle coherent DMA engine. It lives at the host LLC as a
// non-caching fabric agent: reads pull the most up-to-date data through the
// directory (downgrading an owner if necessary, as ARM's ACP and IBM's
// coherent attach do, Section 2.1) and writes invalidate stale copies
// before committing at the LLC.
//
// Every transfer is a record: it waits in the queue, is issued into the
// pending list, and completes into its sink when the directory answers.
// A line has at most one transfer pending; a second one fails.
type DMA struct {
	agent  mesi.AgentID
	fabric *mesi.Fabric
	pool   *mesi.MsgPool // the fabric's

	cReads  *stats.Counter
	cWrites *stats.Counter

	maxOutstanding int
	// gap is the controller's per-transfer occupancy: after issuing one
	// transfer the state machine is busy for gap cycles before the next.
	gap       uint64
	nextIssue uint64
	pumpAt    uint64 // cycle of the last pump event scheduled

	// queue[head:] wait for issue, in arrival order; the slice rewinds
	// when it drains, so steady state reuses one backing array.
	queue []transfer
	head  int
	// pending are the issued transfers, at most maxOutstanding (a
	// handful), so a linear scan with swap-delete finds a line's.
	pending []transfer
}

// transfer is one line read or write.
type transfer struct {
	pa    mem.PAddr
	ver   uint64 // writes: the version, or the increment if delta
	to    DMASink
	tag   uint64
	write bool
	delta bool
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
	fabric.Register(id, d.Handle)
	return d
}

// ReadLine fetches one line; to.DMADone(tag, ver) receives its coherent
// version. A nil to drops the completion.
func (d *DMA) ReadLine(pa mem.PAddr, to DMASink, tag uint64) {
	d.queue = append(d.queue, transfer{pa: pa.LineAddr(), to: to, tag: tag})
	d.cReads.Inc()
	d.pump()
}

// WriteLine commits one line at the LLC; to.DMADone(tag, 0) receives the
// ack. delta marks ver as an increment for write-allocated lines (see
// scratchpad.DirtyLine). A nil to drops the completion.
func (d *DMA) WriteLine(pa mem.PAddr, ver uint64, delta bool, to DMASink, tag uint64) {
	d.queue = append(d.queue, transfer{pa: pa.LineAddr(), ver: ver, to: to, tag: tag,
		write: true, delta: delta})
	d.cWrites.Inc()
	d.pump()
}

// Transfers counts the line reads and writes issued so far.
func (d *DMA) Transfers() int64 { return d.cReads.Value() + d.cWrites.Value() }

// Idle reports whether all queued transfers have completed.
func (d *DMA) Idle() bool {
	return len(d.pending) == 0 && len(d.queue) == 0
}

// pump issues queued transfers up to the outstanding limit, pacing issues
// by the controller gap. A transfer the gap holds back is issued by a pump
// event at nextIssue, scheduled once per cycle: a second pump in that cycle
// would find nextIssue in the future, the queue empty or the limit reached,
// and every event that changes one of those calls pump itself, so dropping
// it cannot change which transfer issues when.
func (d *DMA) pump() {
	for len(d.pending) < d.maxOutstanding && len(d.queue) > 0 {
		now := d.fabric.Now()
		if now < d.nextIssue {
			if d.pumpAt != d.nextIssue {
				d.pumpAt = d.nextIssue
				d.fabric.Engine().ScheduleCallAt(d.nextIssue, d, 0, 0)
			}
			return
		}
		t := d.queue[d.head]
		if d.find(t.pa) >= 0 {
			sim.Failf("dma", now, d.DumpState(), "overlapping transfers to %s", t.pa)
		}
		d.nextIssue = now + d.gap
		if d.head++; d.head == len(d.queue) {
			d.queue, d.head = d.queue[:0], 0
		}
		d.pending = append(d.pending, t)
		m := d.pool.Get()
		m.Type, m.Addr, m.Src, m.Dst = mesi.MsgDMARead, t.pa, d.agent, mesi.DirID
		if t.write {
			m.Type, m.Ver, m.Delta = mesi.MsgDMAWrite, t.ver, t.delta
		}
		d.fabric.Send(m)
	}
}

// HandleEvent runs a gap-deferred pump (sim.EventHandler).
func (d *DMA) HandleEvent(uint64, uint8, uint64) { d.pump() }

// Handle receives directory responses and releases them after the (fully
// synchronous) handling. A read for a line owned modified by a cache arrives
// as a plain Data message from the owner (3-hop), so both forms complete the
// same pending read. A response must match its line's pending transfer.
func (d *DMA) Handle(m *mesi.Msg) {
	defer d.pool.Put(m)
	write := false
	switch m.Type {
	case mesi.MsgDMAReadResp, mesi.MsgData, mesi.MsgDataE, mesi.MsgDataM:
	case mesi.MsgDMAWriteAck:
		write = true
	default:
		sim.Failf("dma", d.fabric.Now(), d.DumpState(), "unexpected %s", m)
	}
	i := d.find(m.Addr.LineAddr())
	if i < 0 || d.pending[i].write != write {
		sim.Failf("dma", d.fabric.Now(), d.DumpState(), "%s matches no pending transfer", m)
	}
	t := d.pending[i]
	last := len(d.pending) - 1
	d.pending[i] = d.pending[last]
	d.pending = d.pending[:last]
	if t.to != nil {
		t.to.DMADone(t.tag, m.Ver)
	}
	d.pump()
}

// find returns the index of pa's pending transfer, or -1.
func (d *DMA) find(pa mem.PAddr) int {
	for i := range d.pending {
		if d.pending[i].pa == pa {
			return i
		}
	}
	return -1
}

// DumpState summarizes in-flight DMA transfers for failure diagnostics.
// Empty when the engine is idle.
func (d *DMA) DumpState() string {
	if d.Idle() {
		return ""
	}
	return fmt.Sprintf("dma: %d pending, %d queued\n", len(d.pending), len(d.queue)-d.head)
}
