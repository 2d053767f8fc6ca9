package mesi

import (
	"fmt"
	"strings"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// txn tracks one outstanding miss transaction at a client. It lives by
// value in the client's MSHR-slot table and is reset (keeping its waiters
// capacity) when Allocate hands the slot out, so steady-state misses
// allocate nothing.
type txn struct {
	addr        uint64
	write       bool // GetM (vs GetS)
	dataArrived bool
	dataState   cache.State
	ver         uint64
	acksNeeded  int // -1 until the Data response reports the count
	acksGot     int
	waiters     []waiter
}

type waiter struct {
	kind mem.AccessKind
	addr mem.PAddr // original (offset-carrying) address, for observations
	done func(now uint64)
}

// Client is a MESI L1 cache controller: the host core's L1D. It exposes a
// processor-side Access API and speaks the directory protocol on the fabric.
type Client struct {
	id     AgentID
	name   string
	fabric *Fabric
	arr    *cache.Array
	mshr   *cache.MSHR

	hitLatency uint64

	txns []txn // by MSHR slot; read only while the slot is allocated
	// frees counts MSHR frees; touched records whether the last refused
	// Access found its line resident (see Frees and RefusalTouched).
	frees   uint32
	touched bool
	// evicting holds dirty or exclusive lines between PutM/PutE and
	// PutAck, so a racing forward or invalidation is still answered.
	evicting cache.EvictBuffer
	pool     *MsgPool // the fabric's

	model     energy.Model
	meter     *energy.Meter
	energyCat energy.Cat
	accessPJ  float64
	obsv      obs.Observer

	cAccesses  *stats.Counter
	cMerges    *stats.Counter
	cMSHRFull  *stats.Counter
	cMisses    *stats.Counter
	cHits      *stats.Counter
	cInvals    *stats.Counter
	cFwdServed *stats.Counter
	cWBs       *stats.Counter
	cDrops     *stats.Counter
}

// ClientConfig sizes a client cache.
type ClientConfig struct {
	Name       string
	Cache      cache.Params // Table 2 host L1: 64 KB, 4-way
	MSHRs      int
	HitLatency uint64 // Table 2: 3 cycles
	// EnergyCategory and AccessPJ define where and how much each array
	// access costs.
	EnergyCategory energy.Cat
	AccessPJ       float64
}

// DefaultHostL1Config matches Table 2.
func DefaultHostL1Config(model energy.Model) ClientConfig {
	return ClientConfig{
		Name:           "hostl1",
		Cache:          cache.Params{SizeBytes: 64 << 10, Ways: 4, LineBytes: mem.LineBytes},
		MSHRs:          16,
		HitLatency:     3,
		EnergyCategory: energy.CatHostL1,
		AccessPJ:       model.HostL1Access,
	}
}

// NewClient builds a client and registers it as agent id on the fabric.
func NewClient(f *Fabric, id AgentID, cfg ClientConfig,
	model energy.Model, meter *energy.Meter, st *stats.Set) *Client {
	c := &Client{
		id:         id,
		name:       cfg.Name,
		fabric:     f,
		arr:        cache.NewArray(cfg.Cache),
		mshr:       cache.NewMSHR(cfg.MSHRs),
		hitLatency: cfg.HitLatency,
		txns:       make([]txn, cfg.MSHRs),
		pool:       f.Pool(),
		model:      model,
		meter:      meter,
		energyCat:  cfg.EnergyCategory,
		accessPJ:   cfg.AccessPJ,
		cAccesses:  st.Counter(cfg.Name + ".accesses"),
		cMerges:    st.Counter(cfg.Name + ".mshr_merge"),
		cMSHRFull:  st.Counter(cfg.Name + ".mshr_full"),
		cMisses:    st.Counter(cfg.Name + ".misses"),
		cHits:      st.Counter(cfg.Name + ".hits"),
		cInvals:    st.Counter(cfg.Name + ".invalidations"),
		cFwdServed: st.Counter(cfg.Name + ".fwd_served"),
		cWBs:       st.Counter(cfg.Name + ".writebacks"),
		cDrops:     st.Counter(cfg.Name + ".silent_drops"),
	}
	f.Register(id, c.Handle)
	return c
}

// ID returns the client's agent ID.
func (c *Client) ID() AgentID { return c.id }

// SetObserver attaches an observer (nil disables observation; the hot
// path then pays only a nil check). A MESI client is a strict agent:
// every recorded load must observe the latest globally-ordered write.
func (c *Client) SetObserver(o obs.Observer) { c.obsv = o }

// observe reports one agent-visible load or store to the attached observer.
func (c *Client) observe(k obs.Kind, addr mem.PAddr, ver uint64) {
	c.obsv.Record(obs.Event{Cycle: c.fabric.Now(), Agent: c.name,
		Addr: uint64(addr), Ver: ver, Kind: k, Phys: true})
}

func (c *Client) access() {
	if c.meter != nil {
		c.meter.Add(c.energyCat, c.accessPJ)
	}
	c.cAccesses.Inc()
}

// Frees counts the MSHR entries the client has freed so far. An Access
// refused with its line absent (a clean miss, RefusalTouched false) changes
// nothing but counters and energy, and the same call is refused again until
// the count moves: only a free lets the client allocate an MSHR or install
// a line.
func (c *Client) Frees() uint32 { return c.frees }

// RefusalTouched reports whether the last refused Access found its line
// resident: a store to a Shared line, which refreshed the line's LRU stamp
// before the MSHR check refused it.
func (c *Client) RefusalTouched() bool { return c.touched }

// ChargeRefusals charges n refused clean-miss accesses exactly as n such
// Access calls would: n accesses, n MSHR-full refusals and n energy adds.
func (c *Client) ChargeRefusals(n int) {
	for i := 0; i < n; i++ {
		c.access()
	}
	c.cMSHRFull.Add(int64(n))
}

// Access performs a processor load or store. done fires when the access
// retires. It returns false when the MSHR is full and the access must be
// retried (back-pressure into the core's load/store queue).
func (c *Client) Access(kind mem.AccessKind, addr mem.PAddr, done func(now uint64)) bool {
	a := uint64(addr.LineAddr())
	c.access()

	l := c.arr.Lookup(a)
	if l != nil {
		switch {
		case kind == mem.Load:
			if c.obsv != nil {
				c.observe(obs.Load, addr, l.Ver)
			}
			c.hit(done)
			return true
		case l.State == cache.Modified || l.State == cache.Exclusive:
			// An E line upgrades to M silently; an M line is already dirty.
			l.State, l.Dirty = cache.Modified, true
			l.Ver++
			if c.obsv != nil {
				c.observe(obs.Store, addr, l.Ver)
			}
			c.hit(done)
			return true
		default:
			// Store to a Shared line: S->M upgrade via GetM.
		}
	}

	// Miss (or upgrade). Merge into an existing transaction when possible.
	if slot := c.mshr.Slot(a); slot >= 0 {
		// A store behind a pending GetS replays after the fill; the replay
		// will find S/E and upgrade.
		t := &c.txns[slot]
		t.waiters = append(t.waiters, waiter{kind, addr, done})
		c.cMerges.Inc()
		return true
	}
	if c.mshr.Full() {
		c.cMSHRFull.Inc()
		c.touched = l != nil
		return false
	}
	t := &c.txns[c.mshr.Allocate(a)]
	*t = txn{addr: a, write: kind == mem.Store, acksNeeded: -1,
		waiters: append(t.waiters[:0], waiter{kind, addr, done})}
	c.cMisses.Inc()
	mt := MsgGetS
	if t.write {
		mt = MsgGetM
	}
	req := c.pool.Get()
	req.Type, req.Addr, req.Src, req.Dst = mt, mem.PAddr(a), c.id, DirID
	c.fabric.Send(req)
	return true
}

func (c *Client) hit(done func(uint64)) {
	c.cHits.Inc()
	c.fabric.Engine().Schedule(c.hitLatency, done)
}

// Handle is the fabric endpoint for protocol messages. Every message is
// consumed synchronously, so it is released into the client's pool on the
// way out.
func (c *Client) Handle(m *Msg) {
	a := uint64(m.Addr.LineAddr())
	switch m.Type {
	case MsgData, MsgDataE, MsgDataM:
		slot := c.mshr.Slot(a)
		if slot < 0 {
			sim.Failf(c.name, c.fabric.Now(), c.DumpState(), "data with no txn: %s", m)
		}
		t := &c.txns[slot]
		t.dataArrived = true
		t.ver = m.Ver
		switch m.Type {
		case MsgDataE:
			t.dataState = cache.Exclusive
		case MsgDataM:
			t.dataState = cache.Modified
		default:
			t.dataState = cache.Shared
		}
		if m.AckCount > 0 || t.acksNeeded == -1 {
			t.acksNeeded = m.AckCount
		}
		c.maybeComplete(t)

	case MsgInvAck:
		slot := c.mshr.Slot(a)
		if slot < 0 {
			sim.Failf(c.name, c.fabric.Now(), c.DumpState(), "InvAck with no txn: %s", m)
		}
		t := &c.txns[slot]
		t.acksGot++
		c.maybeComplete(t)

	case MsgInv:
		// Invalidate a cached copy (it may already be gone: S lines drop
		// silently). Ack whoever the directory says is waiting. A DMA write
		// can invalidate a Modified owner; its version rides the ack so the
		// directory merges the stores before committing the DMA data.
		ack := c.pool.Get()
		ack.Type, ack.Addr, ack.Src, ack.Dst = MsgInvAck, m.Addr, c.id, m.Requester
		if l := c.arr.Peek(a); l != nil {
			if l.State == cache.Modified {
				ack.Dirty, ack.Ver = true, l.Ver
			}
			*l = cache.Line{}
			c.access()
		} else if ver, dirty, ok := c.evicting.Take(a); ok && dirty {
			// An eviction racing with an invalidation: the buffered data is
			// superseded, but its version must still reach the directory —
			// the in-flight PutM will be stale-acked.
			ack.Dirty, ack.Ver = true, ver
		}
		c.cInvals.Inc()
		c.fabric.Send(ack)

	case MsgFwdGetS:
		c.handleFwd(m, a, false)

	case MsgFwdGetM:
		c.handleFwd(m, a, true)

	case MsgPutAck:
		c.evicting.Take(a)

	default:
		sim.Failf(c.name, c.fabric.Now(), c.DumpState(), "unexpected %s", m)
	}
	c.pool.Put(m)
}

// handleFwd answers a forwarded request as the current owner.
func (c *Client) handleFwd(m *Msg, a uint64, exclusive bool) {
	c.cFwdServed.Inc()
	var ver uint64
	var dirty bool
	dropped := false

	if l := c.arr.Peek(a); l != nil && (l.State == cache.Modified || l.State == cache.Exclusive) {
		ver = l.Ver
		dirty = l.State == cache.Modified
		c.access()
		if exclusive {
			*l = cache.Line{}
			dropped = true
		} else {
			l.State = cache.Shared
			l.Dirty = false
		}
	} else if v, d, ok := c.evicting.Take(a); ok {
		// Serve from the eviction buffer; the line is gone either way.
		ver, dirty, dropped = v, d, true
	} else {
		sim.Failf(c.name, c.fabric.Now(), c.DumpState(), "Fwd for line %#x not owned", a)
	}

	dt := MsgData
	if exclusive {
		dt = MsgDataM
	}
	data := c.pool.Get()
	data.Type, data.Addr, data.Src, data.Dst, data.Ver = dt, m.Addr, c.id, m.Requester, ver
	c.fabric.Send(data)
	ack := c.pool.Get()
	ack.Type, ack.Addr, ack.Src, ack.Dst = MsgOwnerAck, m.Addr, c.id, DirID
	ack.Dirty, ack.Dropped, ack.Ver = dirty, dropped, ver
	c.fabric.Send(ack)
}

// maybeComplete fills the line and replays waiters once data and all
// invalidation acks have arrived.
func (c *Client) maybeComplete(t *txn) {
	if !t.dataArrived || t.acksNeeded < 0 || t.acksGot < t.acksNeeded {
		return
	}
	a := t.addr

	// An upgrade (store to a line held in S) must reuse the existing way;
	// filling a second way would alias the line within the set.
	v := c.arr.Peek(a)
	if v == nil {
		v = c.arr.VictimUnpinned(a, c.pinned)
		if v == nil {
			// Every way in the set is tied up by pending transactions; retry.
			c.fabric.Engine().Schedule(1, func(uint64) { c.maybeComplete(t) })
			return
		}
		c.evict(v)
		c.arr.Fill(v, a, 0)
	}
	c.access()
	v.Ver = t.ver
	state := t.dataState
	if t.write {
		state = cache.Modified
	}
	v.State = state
	v.Dirty = state == cache.Modified

	// The record stays readable until Access allocates the slot again: the
	// waiter loop below only schedules work.
	c.mshr.Free(a)
	c.frees++
	c.fabric.Engine().Progress() // miss resolved: heartbeat
	unb := c.pool.Get()
	unb.Type, unb.Addr, unb.Src, unb.Dst = MsgUnblock, mem.PAddr(a), c.id, DirID
	unb.Excl = state == cache.Exclusive || state == cache.Modified
	c.fabric.Send(unb)

	// Replay waiters: stores on a non-M fill re-enter Access and upgrade.
	waiters := t.waiters
	lat := c.hitLatency
	for _, w := range waiters {
		if w.kind == mem.Store && state != cache.Modified {
			c.retry(1, w)
			continue
		}
		if w.kind == mem.Store {
			v.Ver++
			if c.obsv != nil {
				c.observe(obs.Store, w.addr, v.Ver)
			}
		} else if c.obsv != nil {
			c.observe(obs.Load, w.addr, v.Ver)
		}
		c.fabric.Engine().Schedule(lat, w.done)
	}
}

// retry re-issues waiter w's access delay cycles from now, and again every
// 2 cycles while the MSHR file is full.
func (c *Client) retry(delay uint64, w waiter) {
	c.fabric.Engine().Schedule(delay, func(uint64) {
		if !c.Access(w.kind, w.addr, w.done) {
			c.retry(2, w)
		}
	})
}

// pinned reports whether a line has an outstanding transaction: an
// upgrading S line must not be displaced mid-transaction.
func (c *Client) pinned(l *cache.Line) bool { return c.mshr.Slot(l.Addr) >= 0 }

// evict writes back or drops a victim line.
func (c *Client) evict(v *cache.Line) {
	if !v.Valid {
		return
	}
	switch v.State {
	case cache.Modified:
		c.evicting.Put(v.Addr, v.Ver, true)
		put := c.pool.Get()
		put.Type, put.Addr, put.Src, put.Dst, put.Ver =
			MsgPutM, mem.PAddr(v.Addr), c.id, DirID, v.Ver
		c.fabric.Send(put)
		c.cWBs.Inc()
	case cache.Exclusive:
		c.evicting.Put(v.Addr, v.Ver, false)
		put := c.pool.Get()
		put.Type, put.Addr, put.Src, put.Dst = MsgPutE, mem.PAddr(v.Addr), c.id, DirID
		c.fabric.Send(put)
	default:
		// Shared lines drop silently.
		c.cDrops.Inc()
	}
	*v = cache.Line{}
}

// FlushAll writes back every dirty line and invalidates the cache, e.g. at
// the end of a program phase. Writebacks are fire-and-forget.
func (c *Client) FlushAll() {
	c.arr.ForEach(func(l *cache.Line) {
		c.evict(l)
	})
}

// DumpState summarizes in-flight transactions and eviction buffers for
// watchdog/failure diagnostics. Empty when idle.
func (c *Client) DumpState() string {
	if c.mshr.Len() == 0 && c.evicting.Len() == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d txns, %d evicting\n", c.name, c.mshr.Len(), c.evicting.Len())
	for _, a := range c.mshr.Outstanding() {
		t := &c.txns[c.mshr.Slot(a)]
		kind := "GetS"
		if t.write {
			kind = "GetM"
		}
		fmt.Fprintf(&b, "  %#x %s data=%v acks=%d/%d waiters=%d\n",
			a, kind, t.dataArrived, t.acksGot, t.acksNeeded, len(t.waiters))
	}
	return b.String()
}

// Outstanding reports in-flight transactions (for drain checks in tests).
func (c *Client) Outstanding() int { return c.mshr.Len() + c.evicting.Len() }

// Peek exposes line state for tests.
func (c *Client) Peek(addr mem.PAddr) *cache.Line {
	return c.arr.Peek(uint64(addr.LineAddr()))
}
