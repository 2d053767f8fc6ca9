package mesi

import (
	"fmt"
	"sort"
	"strings"

	"fusion/internal/cache"
	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// sharerSet is a bitmask over AgentIDs (at most 32 agents).
type sharerSet uint32

func (s sharerSet) has(id AgentID) bool { return s&(1<<id) != 0 }
func (s *sharerSet) add(id AgentID)     { *s |= 1 << id }
func (s *sharerSet) remove(id AgentID)  { *s &^= 1 << id }
func (s sharerSet) count() int {
	n := 0
	for s != 0 {
		s &= s - 1
		n++
	}
	return n
}

// dirState is the directory's view of a line.
type dirState uint8

const (
	dirI dirState = iota // no cached copies
	dirS                 // one or more clean sharers
	dirE                 // one owner holds E or M
)

// dirEntry is the directory record for one line. The directory is blocking:
// one transaction per line at a time; requests arriving while busy queue in
// FIFO order.
type dirEntry struct {
	state   dirState
	owner   AgentID
	sharers sharerSet

	busy         bool
	waitUnblock  bool
	waitOwnerAck bool
	waitInvAcks  int
	// pendingDMA holds a directory-collected DMA transaction to finish once
	// invalidations complete.
	pendingDMA *Msg
	queue      []*Msg
	// reply is the data reply a busy line owes once readData has the data.
	reply dirReply
}

// dirReply is the data reply a busy directory entry owes its requester:
// sendReply sends it once the LLC or DRAM has produced the line. The
// fields are ordered to pack into 24 bytes.
type dirReply struct {
	addr      mem.PAddr // the request's address
	acks      int       // invalidation acks the requester must collect
	inv       sharerSet // sharers to invalidate on the requester's behalf
	typ       MsgType   // MsgData, MsgDataE, MsgDataM or MsgDMAReadResp
	requester AgentID
	getM      bool // the request was a GetM
}

// Directory HandleEvent opcodes. Every one but dirOpRequest takes a line
// address as arg.
const (
	dirOpRequest   = iota // admit the request parked in slot arg after its NUCA ring latency
	dirOpReply            // send the entry's reply (LLC hit)
	dirOpFetch            // submit the line's DRAM fetch (a refused one retries)
	dirOpWriteback        // submit the line's DRAM write (a refused one retries)
)

// Directory is the shared L2: a NUCA LLC data array plus the MESI directory,
// backed by DRAM. It registers as agent DirID on the fabric.
type Directory struct {
	fabric *Fabric
	llc    *cache.Array
	dram   *dram.DRAM
	ring   interconnect.Ring

	// ver is the golden backing store: the latest version written back for
	// every line. It stands in for both LLC data and DRAM contents. Absent
	// lines read as version 0, which flat.Map's zero-value Get preserves.
	ver *flat.Map[uint64]

	// entries stores pointers: a packed 72-byte entry stored by value, measured
	// on the full artifact set, cut allocations by a further 26% but raised
	// bytes allocated by 7.8%, since every slot the map grows holds a whole
	// entry.
	entries *flat.Map[*dirEntry]

	model energy.Model
	meter *energy.Meter
	pool  *MsgPool // the fabric's

	// deferred parks requests between fabric delivery and ring-latency
	// admission; the closure-free admission event carries the slot index.
	deferred []*Msg
	freeDef  []uint32

	cQueued   *stats.Counter
	cPutStale *stats.Counter
	cFwd      *stats.Counter
	cFwdTile  *stats.Counter
	cL2Acc    *stats.Counter
	cL2Hits   *stats.Counter
	cL2Misses *stats.Counter
	cByType   [256]*stats.Counter // "dir.<MsgType>" per request type

	// TileAgent, when nonzero, marks which agent is the accelerator tile so
	// forwarded-request counts (Section 3.2: "up to ~800 forwarded requests")
	// can be reported separately.
	TileAgent AgentID

	obsv obs.Observer
	mut  *DirMutations
}

// SetObserver attaches an observer to the directory's protocol
// transitions (nil disables observation).
func (dir *Directory) SetObserver(o obs.Observer) { dir.obsv = o }

// SetMutations arms test-only protocol mutations (nil disables them; see
// DirMutations).
func (dir *Directory) SetMutations(m *DirMutations) { dir.mut = m }

// DirConfig sizes the shared L2.
type DirConfig struct {
	LLC  cache.Params      // Table 2: 4 MB, 16-way
	Ring interconnect.Ring // Table 2: 8-tile NUCA ring, ~20-cycle average
}

// DefaultDirConfig matches Table 2.
func DefaultDirConfig() DirConfig {
	return DirConfig{
		LLC:  cache.Params{SizeBytes: 4 << 20, Ways: 16, LineBytes: mem.LineBytes},
		Ring: interconnect.Ring{Stops: 8, PerHop: 4, BankAccess: 6},
	}
}

// NewDirectory builds the L2 controller and registers it on the fabric.
func NewDirectory(f *Fabric, cfg DirConfig, d *dram.DRAM,
	model energy.Model, meter *energy.Meter, st *stats.Set) *Directory {
	dir := &Directory{
		fabric:    f,
		llc:       cache.NewArray(cfg.LLC),
		dram:      d,
		ring:      cfg.Ring,
		ver:       flat.New[uint64](1024),
		entries:   flat.New[*dirEntry](1024),
		model:     model,
		meter:     meter,
		pool:      f.Pool(),
		cQueued:   st.Counter("dir.queued"),
		cPutStale: st.Counter("dir.put_stale"),
		cFwd:      st.Counter("dir.fwd"),
		cFwdTile:  st.Counter("dir.fwd_to_tile"),
		cL2Acc:    st.Counter("l2.accesses"),
		cL2Hits:   st.Counter("l2.hits"),
		cL2Misses: st.Counter("l2.misses"),
	}
	for _, t := range []MsgType{MsgGetS, MsgGetM, MsgPutM, MsgPutE, MsgDMARead, MsgDMAWrite} {
		dir.cByType[t] = st.Counter("dir." + t.String())
	}
	f.Register(DirID, dir.Handle)
	return dir
}

// Preload installs version v for a line directly in the backing store and
// LLC, modeling data the host wrote before offload began.
func (dir *Directory) Preload(addr mem.PAddr, v uint64) {
	a := uint64(addr.LineAddr())
	dir.ver.Put(a, v)
	if dir.llc.Peek(a) == nil {
		dir.llc.Fill(dir.llc.Victim(a), a, 0)
	}
}

// Version returns the backing-store version of a line (0 if never written).
func (dir *Directory) Version(addr mem.PAddr) uint64 {
	return dir.verOf(uint64(addr.LineAddr()))
}

// FwdsToTile counts the requests forwarded to TileAgent, the owner.
func (dir *Directory) FwdsToTile() int64 { return dir.cFwdTile.Value() }

// verOf reads the golden store; absent lines are version 0.
func (dir *Directory) verOf(a uint64) uint64 {
	v, _ := dir.ver.Get(a)
	return v
}

// entry fetches or creates the directory record for a line address.
func (dir *Directory) entry(a uint64) *dirEntry {
	if e, ok := dir.entries.Get(a); ok {
		return e
	}
	e := &dirEntry{}
	dir.entries.Put(a, e)
	return e
}

func (dir *Directory) bank(a uint64) int {
	return int((a >> mem.LineShift) % uint64(dir.ring.Stops))
}

// Handle is the fabric endpoint: routes message types to handlers. Requests
// pay the NUCA ring latency to their bank before processing; acks complete
// synchronously and are released here.
func (dir *Directory) Handle(m *Msg) {
	switch m.Type {
	case MsgGetS, MsgGetM, MsgPutM, MsgPutE, MsgDMARead, MsgDMAWrite:
		lat := dir.ring.Latency(0, dir.bank(uint64(m.Addr)))
		var slot uint32
		if n := len(dir.freeDef); n > 0 {
			slot = dir.freeDef[n-1]
			dir.freeDef = dir.freeDef[:n-1]
			dir.deferred[slot] = m
		} else {
			slot = uint32(len(dir.deferred))
			dir.deferred = append(dir.deferred, m)
		}
		dir.fabric.Engine().ScheduleCall(lat, dir, dirOpRequest, uint64(slot))
	case MsgOwnerAck:
		dir.ownerAck(m)
		dir.pool.Put(m)
	case MsgUnblock:
		dir.unblock(m)
		dir.pool.Put(m)
	case MsgInvAck:
		dir.invAck(m)
		dir.pool.Put(m)
	default:
		sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "unexpected %s", m)
	}
}

// HandleEvent dispatches the directory's closure-free events.
func (dir *Directory) HandleEvent(now uint64, op uint8, arg uint64) {
	switch op {
	case dirOpRequest:
		m := dir.deferred[arg]
		dir.deferred[arg] = nil
		dir.freeDef = append(dir.freeDef, uint32(arg))
		dir.request(m)
	case dirOpReply:
		dir.sendReply(arg)
	case dirOpFetch, dirOpWriteback:
		dir.submitDRAM(op, arg)
	}
}

// request admits a request to the blocking directory.
func (dir *Directory) request(m *Msg) {
	a := uint64(m.Addr.LineAddr())
	e := dir.entry(a)
	if e.busy {
		e.queue = append(e.queue, m)
		dir.cQueued.Inc()
		return
	}
	dir.start(e, m)
}

// start runs one transaction. The entry is not busy. Handlers consume the
// message synchronously (a pending reply copies its fields, never m), so
// start releases it on the way out — except DMAWrite, whose handler keeps
// ownership until commitDMAWrite.
func (dir *Directory) start(e *dirEntry, m *Msg) {
	a := uint64(m.Addr.LineAddr())
	if c := dir.cByType[m.Type]; c != nil {
		c.Inc()
	}
	if dir.obsv != nil {
		var k obs.Kind
		switch m.Type {
		case MsgGetS:
			k = obs.DirRead
		case MsgGetM:
			k = obs.DirWrite
		case MsgPutM, MsgPutE:
			k = obs.DirPut
		case MsgDMARead:
			k = obs.DirDMARead
		case MsgDMAWrite:
			k = obs.DirDMAWrite
		default:
			// Only request types reach start; the dispatch below Failf-s
			// anything else, so an unknown type here is the same bug.
			sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "start trace %s", m)
		}
		dir.obsv.Record(obs.Event{Cycle: dir.fabric.Now(), Agent: "dir", Kind: k,
			Addr: uint64(m.Addr), Peer: int32(m.Src)})
	}
	dir.accessL2() // directory tag/state access

	switch m.Type {
	case MsgGetS:
		dir.handleGetS(e, m, a)
	case MsgGetM:
		dir.handleGetM(e, m, a)
	case MsgPutM, MsgPutE:
		dir.handlePut(e, m, a)
	case MsgDMARead:
		dir.handleDMARead(e, m, a)
	case MsgDMAWrite:
		dir.handleDMAWrite(e, m, a)
		return // released by commitDMAWrite (possibly after inv acks)
	default:
		sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "start %s", m)
	}
	dir.pool.Put(m)
}

func (dir *Directory) handleGetS(e *dirEntry, m *Msg, a uint64) {
	switch e.state {
	case dirI:
		e.busy, e.waitUnblock = true, true
		e.reply = dirReply{typ: MsgDataE, addr: m.Addr, requester: m.Src}
		dir.readData(a)
	case dirS:
		e.busy, e.waitUnblock = true, true
		e.reply = dirReply{typ: MsgData, addr: m.Addr, requester: m.Src}
		dir.readData(a)
	case dirE:
		e.busy, e.waitUnblock, e.waitOwnerAck = true, true, true
		dir.forward(MsgFwdGetS, e.owner, m)
		// State settles when OwnerAck arrives (owner may drop or keep S).
		e.sharers.add(m.Src)
	}
}

func (dir *Directory) handleGetM(e *dirEntry, m *Msg, a uint64) {
	src := m.Src
	switch e.state {
	case dirI:
		e.busy, e.waitUnblock = true, true
		e.reply = dirReply{typ: MsgDataM, addr: m.Addr, requester: src, getM: true}
		dir.readData(a)
	case dirS:
		e.busy, e.waitUnblock = true, true
		others := e.sharers
		others.remove(src)
		if dir.mut != nil && dir.mut.SkipSharerInvalidate {
			// Mutant: grant M without invalidating the other sharers — they
			// keep serving stale copies while the new owner writes.
			others = 0
		}
		e.reply = dirReply{typ: MsgData, addr: m.Addr, requester: src,
			acks: others.count(), inv: others, getM: true}
		dir.readData(a)
	case dirE:
		if e.owner == src {
			// Cannot happen in MESI: E->M upgrades are silent, and an M
			// owner never requests. Guard anyway.
			sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "GetM from current owner agent%d", src)
		}
		e.busy, e.waitUnblock, e.waitOwnerAck = true, true, true
		dir.forward(MsgFwdGetM, e.owner, m)
		e.state, e.owner, e.sharers = dirE, src, 0
	}
}

// handlePut retires a PutM or a PutE. Only a PutM carries data, which is
// accepted only if it is not older than what the directory already holds
// (a stale PutM races with a completed forward).
func (dir *Directory) handlePut(e *dirEntry, m *Msg, a uint64) {
	if e.state == dirE && e.owner == m.Src {
		e.state, e.owner = dirI, 0
	} else {
		dir.cPutStale.Inc()
	}
	if m.Type == MsgPutM && m.Ver >= dir.verOf(a) {
		dir.ver.Put(a, m.Ver)
		dir.fillLLC(a, true)
	}
	ack := dir.pool.Get()
	ack.Type, ack.Addr, ack.Src, ack.Dst = MsgPutAck, m.Addr, DirID, m.Src
	dir.send(ack)
	// Puts complete synchronously and never mark the line busy; when this
	// one was popped from the queue, the requests behind it must continue
	// draining or they would sit on a non-busy line forever.
	dir.finish(e)
}

func (dir *Directory) handleDMARead(e *dirEntry, m *Msg, a uint64) {
	switch e.state {
	case dirI, dirS:
		e.busy = true // block the line only for the duration of the fetch
		e.reply = dirReply{typ: MsgDMAReadResp, addr: m.Addr, requester: m.Src}
		dir.readData(a)
	case dirE:
		// Owner supplies data straight to the DMA engine; the directory
		// waits only for the owner's ack (the DMA never unblocks).
		e.busy, e.waitOwnerAck = true, true
		dir.forward(MsgFwdGetS, e.owner, m)
		e.sharers.add(e.owner) // provisional; OwnerAck fixes it up
	}
}

func (dir *Directory) handleDMAWrite(e *dirEntry, m *Msg, a uint64) {
	// Invalidate every cached copy, then commit the DMA data.
	var targets sharerSet
	switch e.state {
	case dirI:
		// Line uncached: nothing to invalidate, commit immediately below.
	case dirS:
		targets = e.sharers
	case dirE:
		targets.add(e.owner)
	}
	n := targets.count()
	e.state, e.owner, e.sharers = dirI, 0, 0
	if n == 0 {
		dir.commitDMAWrite(e, m, a)
		return
	}
	e.busy = true
	e.waitInvAcks = n
	e.pendingDMA = m
	dir.invalidate(targets, m.Addr, DirID)
}

// invalidate sends an Inv for addr to every agent in targets, in agent
// order; each acks to requester.
func (dir *Directory) invalidate(targets sharerSet, addr mem.PAddr, requester AgentID) {
	for s := AgentID(0); targets != 0; s++ {
		if !targets.has(s) {
			continue
		}
		targets.remove(s)
		inv := dir.pool.Get()
		inv.Type, inv.Addr, inv.Src, inv.Dst, inv.Requester = MsgInv, addr, DirID, s, requester
		dir.send(inv)
	}
}

// commitDMAWrite finishes a DMA write and releases the request message it
// owned (handed over either directly or via pendingDMA).
func (dir *Directory) commitDMAWrite(e *dirEntry, m *Msg, a uint64) {
	if m.Delta {
		dir.ver.Put(a, dir.verOf(a)+m.Ver)
	} else if m.Ver >= dir.verOf(a) {
		dir.ver.Put(a, m.Ver)
	}
	dir.fillLLC(a, true)
	ack := dir.pool.Get()
	ack.Type, ack.Addr, ack.Src, ack.Dst = MsgDMAWriteAck, m.Addr, DirID, m.Src
	dir.send(ack)
	dir.pool.Put(m)
	dir.finish(e)
}

// ownerAck arrives from the previous owner after a Fwd.
func (dir *Directory) ownerAck(m *Msg) {
	a := uint64(m.Addr.LineAddr())
	e := dir.entry(a)
	if !e.waitOwnerAck {
		sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "unexpected OwnerAck %s", m)
	}
	e.waitOwnerAck = false
	if m.Dirty {
		if m.Ver >= dir.verOf(a) {
			dir.ver.Put(a, m.Ver)
		}
		dir.fillLLC(a, true)
	}
	if m.Dropped {
		e.sharers.remove(m.Src)
		if e.state == dirE && e.owner == m.Src {
			// FwdGetS target dropped instead of keeping S (the accelerator
			// tile always does). Ownership question resolves below.
			e.state = dirS
		}
	} else if e.state == dirE && e.owner != m.Src {
		// FwdGetM path already reassigned the owner; nothing to do.
	} else if e.state == dirE {
		// FwdGetS with owner keeping a shared copy.
		e.state = dirS
		e.sharers.add(m.Src)
	}
	if e.state == dirS && e.sharers.count() == 0 {
		e.state = dirI
	}
	dir.maybeFinish(e)
}

// unblock completes a requester-collected transaction.
func (dir *Directory) unblock(m *Msg) {
	a := uint64(m.Addr.LineAddr())
	e := dir.entry(a)
	if !e.waitUnblock {
		sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "unexpected Unblock %s", m)
	}
	e.waitUnblock = false
	dir.maybeFinish(e)
}

// invAck is a directory-collected invalidation ack (DMA writes only). An
// invalidated owner (the accelerator tile) returns its dirty version on the
// ack; it must merge before the pending DMA write commits, or a delta write
// would accumulate on top of a stale base.
func (dir *Directory) invAck(m *Msg) {
	a := uint64(m.Addr.LineAddr())
	e := dir.entry(a)
	if e.waitInvAcks <= 0 {
		sim.Failf("dir", dir.fabric.Now(), dir.DumpState(), "unexpected InvAck %s", m)
	}
	if m.Dirty && m.Ver >= dir.verOf(a) {
		dir.ver.Put(a, m.Ver)
		dir.fillLLC(a, true)
	}
	e.waitInvAcks--
	if e.waitInvAcks == 0 && e.pendingDMA != nil {
		m2 := e.pendingDMA
		e.pendingDMA = nil
		dir.commitDMAWrite(e, m2, a)
	}
}

func (dir *Directory) maybeFinish(e *dirEntry) {
	if e.busy && !e.waitUnblock && !e.waitOwnerAck && e.waitInvAcks == 0 && e.pendingDMA == nil {
		dir.finish(e)
	}
}

// finish releases the line and admits the next queued request.
func (dir *Directory) finish(e *dirEntry) {
	e.busy = false
	if len(e.queue) == 0 {
		return
	}
	next := e.queue[0]
	e.queue = e.queue[1:]
	dir.start(e, next)
}

// forward sends a Fwd to the current owner on behalf of requester req.
func (dir *Directory) forward(t MsgType, owner AgentID, req *Msg) {
	dir.cFwd.Inc()
	if owner == dir.TileAgent && dir.TileAgent != 0 {
		dir.cFwdTile.Inc()
	}
	if dir.obsv != nil {
		dir.obsv.Record(obs.Event{Cycle: dir.fabric.Now(), Agent: "dir", Kind: obs.DirForward,
			Addr: uint64(req.Addr), Msg: t.String(), Peer: int32(owner), Requester: int32(req.Src)})
	}
	fwd := dir.pool.Get()
	fwd.Type, fwd.Addr, fwd.Src, fwd.Dst, fwd.Requester = t, req.Addr, DirID, owner, req.Src
	dir.send(fwd)
}

func (dir *Directory) send(m *Msg) { dir.fabric.Send(m) }

// accessL2 accounts one L2 bank access.
func (dir *Directory) accessL2() {
	if dir.meter != nil {
		dir.meter.Add(energy.CatL2, dir.model.L2Access)
	}
	dir.cL2Acc.Inc()
}

// readData obtains line a's data for the entry's pending reply: an LLC hit
// replies after a cycle; a miss fetches from DRAM and fills the LLC first.
func (dir *Directory) readData(a uint64) {
	dir.accessL2()
	if dir.llc.Lookup(a) != nil {
		dir.cL2Hits.Inc()
		dir.fabric.Engine().ScheduleCall(1, dir, dirOpReply, a)
		return
	}
	dir.cL2Misses.Inc()
	dir.fetchDRAM(a)
}

// fetchDRAM reads line a from DRAM; the LLC fill and the entry's pending
// reply follow when the data returns.
func (dir *Directory) fetchDRAM(a uint64) { dir.submitDRAM(dirOpFetch, a) }

// submitDRAM hands DRAM the fetch (dirOpFetch) or the write (dirOpWriteback)
// of line a. A refused command retries after 4 cycles: Submit refuses when
// the line's channel queue is full.
func (dir *Directory) submitDRAM(op uint8, a uint64) {
	r := dram.Request{Addr: mem.PAddr(a), Write: op == dirOpWriteback}
	if op == dirOpFetch {
		r.Done = func(uint64) {
			dir.fillLLC(a, false)
			dir.sendReply(a)
		}
	}
	if !dir.dram.Submit(r) {
		dir.fabric.Engine().ScheduleCall(4, dir, op, a)
	}
}

// sendReply sends line a's pending reply with the line's version at this
// moment, then the invalidations it owes, and settles the line: a DMA read
// finishes, a GetS on a shared line adds a sharer, and any other GetS or
// GetM makes the requester the owner.
func (dir *Directory) sendReply(a uint64) {
	e, _ := dir.entries.Get(a)
	r := e.reply
	d := dir.pool.Get()
	d.Type, d.Addr, d.Src, d.Dst, d.AckCount, d.Ver = r.typ, r.addr, DirID, r.requester, r.acks, dir.verOf(a)
	dir.send(d)
	dir.invalidate(r.inv, r.addr, r.requester)
	switch {
	case r.typ == MsgDMAReadResp:
		dir.finish(e)
	case r.getM:
		e.state, e.owner, e.sharers = dirE, r.requester, 0
	case r.typ == MsgData:
		e.sharers.add(r.requester)
	default:
		e.state, e.owner = dirE, r.requester
	}
}

// fillLLC installs a line in the LLC data array, writing back a dirty victim
// to DRAM (data itself already lives in the golden store).
func (dir *Directory) fillLLC(a uint64, dirty bool) {
	if l := dir.llc.Peek(a); l != nil {
		l.Dirty = l.Dirty || dirty
		dir.accessL2() // write hit
		return
	}
	v := dir.llc.Victim(a)
	if v.Valid && v.Dirty {
		dir.submitDRAM(dirOpWriteback, v.Addr)
	}
	dir.llc.Fill(v, a, 0)
	v.Dirty = dirty
	dir.accessL2()
}

// DumpState lists every directory entry with a transient state (busy /
// waiting on Unblock, OwnerAck, or InvAcks / queued requests) — the lines a
// hung protocol is stuck on. Empty when everything is quiescent.
func (dir *Directory) DumpState() string {
	addrs := make([]uint64, 0)
	dir.entries.ForEach(func(a uint64, ep **dirEntry) {
		e := *ep
		if e.busy || e.waitUnblock || e.waitOwnerAck || e.waitInvAcks > 0 ||
			e.pendingDMA != nil || len(e.queue) > 0 {
			addrs = append(addrs, a)
		}
	})
	if len(addrs) == 0 {
		return ""
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "dir: %d transient entries\n", len(addrs))
	for _, a := range addrs {
		e, _ := dir.entries.Get(a)
		st := [...]string{"I", "S", "E"}[e.state]
		fmt.Fprintf(&b, "  %#x state=%s owner=%d busy=%v waitUnblock=%v waitOwnerAck=%v waitInvAcks=%d queued=%d\n",
			a, st, e.owner, e.busy, e.waitUnblock, e.waitOwnerAck, e.waitInvAcks, len(e.queue))
	}
	return b.String()
}

// Sharers reports the directory's view of a line (for tests).
func (dir *Directory) Sharers(addr mem.PAddr) (state string, owner AgentID, n int) {
	e := dir.entry(uint64(addr.LineAddr()))
	switch e.state {
	case dirI:
		state = "I"
	case dirS:
		state = "S"
	case dirE:
		state = "E"
	}
	return state, e.owner, e.sharers.count()
}
