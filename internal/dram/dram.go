// Package dram models the main memory of Table 2: four channels, open-page
// row-buffer policy, a 32-entry command queue per channel, and ~200-cycle
// access latency.
//
// The model is deliberately simple — the paper's evaluation is dominated by
// on-chip effects, and DRAM matters only as a high, roughly constant cost
// behind LLC misses — but it keeps the two behaviours that can shift
// results: row-buffer locality (streaming accelerators see row hits) and
// queueing under burst traffic (DMA windows).
package dram

import (
	"fmt"
	"math"
	"strings"

	"fusion/internal/energy"
	"fusion/internal/faults"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// Config holds the memory-system parameters.
type Config struct {
	Channels    int
	QueueDepth  int    // command-queue entries per channel (Table 2: 32)
	RowBytes    int    // open-page row size
	RowHitLat   uint64 // cycles: CAS on an open row
	RowMissLat  uint64 // cycles: precharge + activate + CAS
	BurstCycles uint64 // channel occupancy per 64B transfer
}

// DefaultConfig matches Table 2 (average latency ≈ 200 cycles).
func DefaultConfig() Config {
	return Config{
		Channels:    4,
		QueueDepth:  32,
		RowBytes:    2048,
		RowHitLat:   140,
		RowMissLat:  230,
		BurstCycles: 4,
	}
}

// Request is one line-granularity memory command.
type Request struct {
	Addr  mem.PAddr
	Write bool
	// Done runs when the command completes (data returned / write retired).
	Done func(now uint64)
}

// channel is one memory channel. Its command queue is a ring of
// QueueDepth entries, allocated once: queued commands are queue[head],
// queue[head+1], ... (mod QueueDepth), n of them.
type channel struct {
	queue     []Request
	head, n   int
	openRow   uint64
	rowValid  bool
	busyUntil uint64
}

// DRAM is the memory controller plus channels. It is a sim.Ticker.
type DRAM struct {
	cfg      Config
	eng      *sim.Engine
	meter    *energy.Meter
	model    energy.Model
	channels []channel
	inj      *faults.Injector
	queued   int // commands queued over every channel
	tick     int // engine ticker index: asleep while nothing is queued

	cQueueFull   *stats.Counter
	cSubmitted   *stats.Counter
	cRowHit      *stats.Counter
	cRowMiss     *stats.Counter
	cFaultSpikes *stats.Counter
	cReads       *stats.Counter
	cWrites      *stats.Counter
}

// New builds a DRAM and registers it with the engine, asleep until the
// first Submit.
func New(eng *sim.Engine, cfg Config, model energy.Model, meter *energy.Meter, st *stats.Set) *DRAM {
	d := &DRAM{
		cfg:          cfg,
		eng:          eng,
		meter:        meter,
		model:        model,
		channels:     make([]channel, cfg.Channels),
		cQueueFull:   st.Counter("dram.queue_full"),
		cSubmitted:   st.Counter("dram.submitted"),
		cRowHit:      st.Counter("dram.row_hit"),
		cRowMiss:     st.Counter("dram.row_miss"),
		cFaultSpikes: st.Counter("dram.fault_spikes"),
		cReads:       st.Counter("dram.reads"),
		cWrites:      st.Counter("dram.writes"),
	}
	for i := range d.channels {
		d.channels[i].queue = make([]Request, max(cfg.QueueDepth, 0))
	}
	d.tick = eng.Register(d)
	eng.Sleep(d.tick, math.MaxUint64)
	return d
}

// Name implements sim.Ticker.
func (d *DRAM) Name() string { return "dram" }

// FaultSpikes counts the injected latency spikes.
func (d *DRAM) FaultSpikes() int64 { return d.cFaultSpikes.Value() }

// SetInjector attaches a fault injector; each command's service latency may
// then spike per the plan (deterministic per channel stream).
func (d *DRAM) SetInjector(inj *faults.Injector) { d.inj = inj }

// channelOf maps a line address to its channel (line interleaving).
func (d *DRAM) channelOf(a mem.PAddr) int {
	return int(a.LineID() % uint64(d.cfg.Channels))
}

// rowOf returns the row number within the channel.
func (d *DRAM) rowOf(a mem.PAddr) uint64 {
	return uint64(a) / uint64(d.cfg.RowBytes)
}

// Submit enqueues a request. It returns false when the target channel's
// command queue is full; the caller must retry later (back-pressure).
func (d *DRAM) Submit(r Request) bool {
	ch := &d.channels[d.channelOf(r.Addr)]
	if ch.n == len(ch.queue) {
		d.cQueueFull.Inc()
		return false
	}
	tail := ch.head + ch.n
	if tail >= len(ch.queue) {
		tail -= len(ch.queue)
	}
	ch.queue[tail] = r
	ch.n++
	d.queued++
	d.cSubmitted.Inc()
	d.eng.Wake(d.tick)
	return true
}

// Tick issues at most one command per channel per cycle.
func (d *DRAM) Tick(now uint64) {
	for i := range d.channels {
		ch := &d.channels[i]
		if ch.n == 0 || now < ch.busyUntil {
			continue
		}
		req := ch.queue[ch.head]
		ch.queue[ch.head] = Request{} // drop the Done reference
		if ch.head++; ch.head == len(ch.queue) {
			ch.head = 0
		}
		ch.n--
		d.queued--

		row := d.rowOf(req.Addr)
		lat := d.cfg.RowMissLat
		if ch.rowValid && ch.openRow == row {
			lat = d.cfg.RowHitLat
			d.cRowHit.Inc()
		} else {
			d.cRowMiss.Inc()
		}
		if extra := d.inj.DRAMDelay(i); extra > 0 {
			lat = sim.SatAdd(lat, extra)
			d.cFaultSpikes.Inc()
		}
		d.eng.Progress() // a command issuing is forward progress
		ch.openRow = row
		ch.rowValid = true
		ch.busyUntil = now + d.cfg.BurstCycles

		if d.meter != nil {
			d.meter.Add(energy.CatDRAM, d.model.DRAMAccess)
			d.meter.Add(energy.CatLinkMem, d.model.LinkL2DRAM*float64(mem.LineBytes))
		}
		if req.Write {
			d.cWrites.Inc()
		} else {
			d.cReads.Inc()
		}
		done := req.Done
		if done != nil {
			d.eng.ScheduleAt(sim.SatAdd(now, lat), done)
		}
	}
	// Sleep only with every queue empty: a queued command keeps the
	// controller awake while its channel waits out a burst.
	if d.queued == 0 {
		d.eng.Sleep(d.tick, math.MaxUint64)
	}
}

// QueueOccupancy returns the total queued commands across channels.
func (d *DRAM) QueueOccupancy() int { return d.queued }

// DumpState describes per-channel queue state for watchdog diagnostics.
// Empty when nothing is queued.
func (d *DRAM) DumpState() string {
	var b strings.Builder
	for i := range d.channels {
		ch := &d.channels[i]
		if ch.n == 0 {
			continue
		}
		fmt.Fprintf(&b, "ch%d: %d queued (head %#x, busy until %d)\n",
			i, ch.n, uint64(ch.queue[ch.head].Addr), ch.busyUntil)
	}
	return b.String()
}
