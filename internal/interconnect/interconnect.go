// Package interconnect models the on-chip links of the Fusion system: the
// accelerator<->L1X connections inside a tile, the direct L0X<->L0X
// forwarding path of FUSION-Dx, every route of the host fabric
// (mesi.Fabric), the tile<->host-L2 link among them, and the ring that
// joins the LLC's NUCA banks.
//
// Links impose latency, serialize messages onto a finite flit bandwidth, and
// attribute energy per byte to an energy.Meter category. Message and flit
// counts feed Figure 6c (link traffic breakdown) and Table 4 (write-through
// vs writeback bandwidth in 8-byte flits).
package interconnect

import (
	"fusion/internal/energy"
	"fusion/internal/faults"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// FlitBytes is the flit width used throughout the paper (Table 4).
const FlitBytes = 8

// ControlBytes is the size of a control (request/ack) message: an address,
// a type, and a lease timestamp fit in one flit.
const ControlBytes = 8

// DataBytes is the size of a data-carrying message: one flit of header plus
// a 64-byte cache line.
const DataBytes = 8 + 64

// Message is anything that can travel over a Link.
type Message interface {
	// Bytes is the on-wire size, used for flit counting and link energy.
	Bytes() int
}

// Flits returns the number of 8-byte flits needed for n bytes.
func Flits(n int) int {
	return (n + FlitBytes - 1) / FlitBytes
}

// Link is a unidirectional point-to-point connection. Messages arrive at the
// receiver `latency` cycles after Send, in send order; a finite bandwidth
// (flits per cycle) serializes back-to-back messages.
type Link struct {
	name      string
	eng       *sim.Engine
	latency   uint64
	bwFlits   uint64 // flits per cycle; 0 means infinite
	pJPerByte float64
	meter     *energy.Meter
	meterCat  energy.Cat
	deliver   func(Message)
	inj       *faults.Injector

	// Interned counter handles, resolved once at construction so Send does
	// no string concatenation or map hashing per message.
	cMsgs   *stats.Counter
	cBytes  *stats.Counter
	cFlits  *stats.Counter
	cCtrl   *stats.Counter
	cData   *stats.Counter
	cFaults *stats.Counter

	nextFree   uint64 // first cycle the head of the link is free
	lastArrive uint64 // latest delivery scheduled so far (FIFO floor)

	// In-flight messages awaiting delivery, in send order. Arrival cycles
	// are non-decreasing (lastArrive floor) and the event queue is stable,
	// so delivery events fire in push order: a plain FIFO replaces one
	// closure allocation per Send.
	pending []Message
	phead   int
}

// Config holds Link construction parameters.
type Config struct {
	Name          string
	Latency       uint64
	FlitsPerCycle uint64 // 0 = unlimited
	PJPerByte     float64
	Meter         *energy.Meter
	MeterCategory energy.Cat
	Stats         *stats.Set
	// Faults, when non-nil, counts the link's injected delays in place of
	// its own <Name>.faults counter, so a group of links can share one.
	Faults *stats.Counter
	// Deliver is invoked at the receiver when a message arrives.
	Deliver func(Message)
	// Injector, when non-nil, perturbs delivery with the deterministic,
	// order-preserving faults of its plan (delay jitter, stall windows).
	Injector *faults.Injector
}

// NewLink builds a link on the given engine.
func NewLink(eng *sim.Engine, cfg Config) *Link {
	if cfg.Deliver == nil {
		sim.Failf("interconnect", 0, "", "link %q needs a Deliver callback", cfg.Name)
	}
	l := &Link{
		name:      cfg.Name,
		eng:       eng,
		latency:   cfg.Latency,
		bwFlits:   cfg.FlitsPerCycle,
		pJPerByte: cfg.PJPerByte,
		meter:     cfg.Meter,
		meterCat:  cfg.MeterCategory,
		deliver:   cfg.Deliver,
		inj:       cfg.Injector,
		cMsgs:     cfg.Stats.Counter(cfg.Name + ".msgs"),
		cBytes:    cfg.Stats.Counter(cfg.Name + ".bytes"),
		cFlits:    cfg.Stats.Counter(cfg.Name + ".flits"),
		cCtrl:     cfg.Stats.Counter(cfg.Name + ".ctrl"),
		cData:     cfg.Stats.Counter(cfg.Name + ".data"),
		cFaults:   cfg.Faults,
	}
	if l.cFaults == nil {
		l.cFaults = cfg.Stats.Counter(cfg.Name + ".faults")
	}
	return l
}

// SetInjector attaches (or clears) a fault injector after construction.
func (l *Link) SetInjector(inj *faults.Injector) { l.inj = inj }

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Traffic is what a link has carried: every message, its 8-byte flits, and
// the split into control and data messages.
type Traffic struct {
	Msgs, Flits, Ctrl, Data int64
}

// Add returns the sum of t and u.
func (t Traffic) Add(u Traffic) Traffic {
	return Traffic{t.Msgs + u.Msgs, t.Flits + u.Flits, t.Ctrl + u.Ctrl, t.Data + u.Data}
}

// Traffic reads the link's counters. Links built with the same name share
// those counters, so each of them reports the whole group's traffic.
func (l *Link) Traffic() Traffic {
	return Traffic{l.cMsgs.Value(), l.cFlits.Value(), l.cCtrl.Value(), l.cData.Value()}
}

// Faults reads the link's fault counter, which Config.Faults may share.
func (l *Link) Faults() int64 { return l.cFaults.Value() }

// Send queues m for delivery. Energy and traffic are accounted immediately;
// delivery happens after the link latency plus any serialization delay.
func (l *Link) Send(m Message) {
	bytes := m.Bytes()
	flits := uint64(Flits(bytes))

	l.cMsgs.Inc()
	l.cBytes.Add(int64(bytes))
	l.cFlits.Add(int64(flits))
	if bytes <= ControlBytes {
		l.cCtrl.Inc()
	} else {
		l.cData.Inc()
	}
	if l.meter != nil {
		l.meter.Add(l.meterCat, l.pJPerByte*float64(bytes))
	}

	now := l.eng.Now()
	start := now
	if extra := l.inj.LinkDelay(l.name, now); extra > 0 {
		start = sim.SatAdd(start, extra)
		l.cFaults.Inc()
	}
	if l.bwFlits > 0 {
		if l.nextFree > start {
			start = l.nextFree
		}
		occupancy := (flits + l.bwFlits - 1) / l.bwFlits
		if occupancy == 0 {
			occupancy = 1
		}
		l.nextFree = sim.SatAdd(start, occupancy)
	}
	arrive := sim.SatAdd(start, l.latency)
	if arrive <= now {
		arrive = now + 1 // a link always takes at least one cycle
	}
	// FIFO floor: injected jitter must never let a later message overtake
	// an earlier one (equal arrival cycles keep send order — the event
	// queue is stable).
	if arrive < l.lastArrive {
		arrive = l.lastArrive
	}
	l.lastArrive = arrive
	if l.phead == len(l.pending) {
		l.pending = l.pending[:0]
		l.phead = 0
	}
	l.pending = append(l.pending, m)
	l.eng.ScheduleCallAt(arrive, l, 0, 0)
}

// HandleEvent delivers the oldest in-flight message. Delivery events fire in
// send order (non-decreasing arrival cycles, stable event queue), so the
// head of the pending FIFO is always the message this event was scheduled
// for. A delivery is forward progress: it feeds the watchdog's heartbeat.
func (l *Link) HandleEvent(now uint64, op uint8, arg uint64) {
	m := l.pending[l.phead]
	l.pending[l.phead] = nil // release for GC / pool reuse
	l.phead++
	if l.phead == len(l.pending) {
		l.pending = l.pending[:0]
		l.phead = 0
	} else if l.phead > 64 && l.phead*2 > len(l.pending) {
		n := copy(l.pending, l.pending[l.phead:])
		l.pending = l.pending[:n]
		l.phead = 0
	}
	l.eng.Progress()
	l.deliver(m)
}

// Ring computes NUCA ring-hop latencies between the LLC banks. The paper's
// LLC is an 8-tile NUCA on a ring with ~20-cycle average access (Table 2).
type Ring struct {
	Stops      int
	PerHop     uint64 // cycles per ring hop
	BankAccess uint64 // cycles inside the bank itself
}

// Latency returns the cycles from stop a to stop b plus the bank access
// time, taking the shorter ring direction.
func (r Ring) Latency(a, b int) uint64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if other := r.Stops - d; other < d {
		d = other
	}
	return uint64(d)*r.PerHop + r.BankAccess
}

// AvgLatency returns the average access latency from stop 0 over all banks,
// used to check the configuration against the paper's 20-cycle figure.
func (r Ring) AvgLatency() float64 {
	var total uint64
	for b := 0; b < r.Stops; b++ {
		total += r.Latency(0, b)
	}
	return float64(total) / float64(r.Stops)
}
