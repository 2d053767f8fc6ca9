package acc

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/vm"
)

// L1XConfig sizes the shared tile cache.
type L1XConfig struct {
	Cache     cache.Params // Table 2: 64 KB (or 256 KB), 8-way
	Banks     int          // Table 2: 16 banks
	MSHRs     int
	AccessLat uint64 // bank access latency
	AccessPJ  float64
	// LeaseSlack pads retries when waiting for epochs to lapse.
	LeaseSlack uint64
	// StatPrefix distinguishes multiple tiles' counters ("" keeps the
	// canonical "l1x." names).
	StatPrefix string
}

// l1txn is one outstanding host-side (MESI) fetch. It lives by value in
// the L1X's MSHR-slot table and is reset (keeping its waiters capacity)
// when Allocate hands the slot out.
type l1txn struct {
	va         uint64 // virtual line address
	pa         mem.PAddr
	waiters    []*TileMsg // lease requests to replay once data arrives
	ver        uint64
	acksNeeded int // -1 until the data response reports the count
	acksGot    int
	pid        mem.PID
	arrived    bool
}

const (
	holderAbsent   = -3 // no lease interaction since the line was installed
	holderNone     = -2
	holderMultiple = -1
)

// L1X HandleEvent opcodes.
const (
	opL1XProcess  = 0 // process the TileMsg parked in slot arg
	opL1XSendGetM = 1 // send GetM for the physical line address in arg
)

// L1X is the shared accelerator-tile cache: the ACC ordering point, the
// tile's single MESI agent (MEI states), and the home of the AX-TLB and
// AX-RMAP. It is indexed by PID-tagged virtual addresses; translation
// happens only on its miss path (Section 3.2).
type L1X struct {
	name string
	cfg  L1XConfig
	arr  *cache.Array
	mshr *cache.MSHR

	eng    *sim.Engine
	fabric *mesi.Fabric
	agent  mesi.AgentID
	tlb    Translator
	rmap   *vm.RMAP

	// toL0X is indexed by AXCID (dense within a tile).
	toL0X []*interconnect.Link

	// txns is keyed by MSHR slot (the file is keyed by virtual line
	// address) and read only while the slot is allocated; a pending
	// fetch's physical address lives on the txn, so the PA->VA question is
	// a walk of the MSHR occupancy bitmap.
	txns []l1txn
	// waiting and holder are per-(set, way) line-slot arrays parallel to
	// the tag array (cache.Array.SlotOf): the stall list and sole
	// read-lease holder belong to the line currently in the slot. A line
	// can only leave the array with no open write epoch, hence with an
	// empty stall list (pinned and leaseWait check), so slot reuse is safe.
	waiting [][]*TileMsg
	holder  []int
	evict   cache.EvictBuffer // awaiting PutAck; can serve host Fwds

	tilePool *TileMsgPool  // the tile's (a private one outside NewTile)
	mesiPool *mesi.MsgPool // the host fabric's
	// parked holds TileMsgs between scheduling and processing; the
	// closure-free event carries the slot index.
	parked    []*TileMsg
	freeSlots []uint32

	meter *energy.Meter
	obsv  obs.Observer
	st    *stats.Set
	mut   *Mutations

	// HYDRA cacheability filter (nil/zero when disarmed — see
	// EnableBypassFilter). touches counts lease requests per virtual line;
	// a fetch whose demand stays below bypassThreshold, or that completes
	// past the task deadline, is served to its waiting loads without
	// allocating.
	filterOn        bool
	bypassThreshold int
	bypassPJ        float64
	deadline        uint64
	touches         *flat.Map[uint32]

	cAccesses   *stats.Counter
	cStallWLock *stats.Counter
	cStallGTime *stats.Counter
	cGrantsW    *stats.Counter
	cGrantsR    *stats.Counter
	cWBOrphan   *stats.Counter
	cWBIn       *stats.Counter
	cMSHRFull   *stats.Counter
	cMisses     *stats.Counter
	cSynEvict   *stats.Counter
	cEvictions  *stats.Counter
	cHostFwds   *stats.Counter
	cFwdStalled *stats.Counter
	// Created by EnableBypassFilter so non-HYDRA systems' stat dumps are
	// undisturbed.
	cBypassAlloc    *stats.Counter
	cBypassDeadline *stats.Counter
}

// SetMutations arms test-only protocol mutations at the L1X (nil disarms).
// Only IgnoreDeadline is interpreted here; the L0X mutations ride on the
// same struct.
func (x *L1X) SetMutations(m *Mutations) { x.mut = m }

// EnableBypassFilter arms the HYDRA cacheability filter: a fetch serving
// only loads is examined before allocation, and bypassed — data handed to
// the waiting L0Xs one-shot, ownership relinquished immediately — when the
// line's request count is below threshold (low expected reuse) or the
// fill completes past the task deadline set by SetDeadline. Every
// examination is metered at checkPJ under energy.CatPolicy.
func (x *L1X) EnableBypassFilter(threshold int, checkPJ float64) {
	x.filterOn = true
	x.bypassThreshold = threshold
	x.bypassPJ = checkPJ
	x.touches = flat.New[uint32](4096)
	x.cBypassAlloc = x.st.Counter(x.name + ".bypass_alloc")
	x.cBypassDeadline = x.st.Counter(x.name + ".bypass_deadline")
}

// SetDeadline sets the absolute cycle after which the filter treats every
// fill as deadline-critical (zero disables the deadline term).
func (x *L1X) SetDeadline(d uint64) { x.deadline = d }

// SetObserver attaches an observer (nil disables observation) to the
// L1X's protocol transitions. The litmus recorder keeps grants as
// diagnostics: the value checker keys on L0X and host-side observations,
// but a grant pinpoints where a stale version entered the tile.
func (x *L1X) SetObserver(o obs.Observer) { x.obsv = o }

// Translator is the AX-TLB interface (satisfied by *vm.TLB).
type Translator interface {
	Translate(pid mem.PID, va mem.VAddr) (mem.PAddr, uint64)
}

// NewL1X builds the shared tile cache and registers it as agent on the
// fabric.
func NewL1X(eng *sim.Engine, fabric *mesi.Fabric, agent mesi.AgentID,
	cfg L1XConfig, tlb Translator, rmap *vm.RMAP,
	meter *energy.Meter, st *stats.Set) *L1X {
	name := cfg.StatPrefix + "l1x"
	arr := cache.NewArray(cfg.Cache)
	holder := make([]int, arr.NumLines())
	for i := range holder {
		holder[i] = holderAbsent
	}
	x := &L1X{
		name:        name,
		cfg:         cfg,
		arr:         arr,
		mshr:        cache.NewMSHR(cfg.MSHRs),
		eng:         eng,
		fabric:      fabric,
		agent:       agent,
		tlb:         tlb,
		rmap:        rmap,
		txns:        make([]l1txn, cfg.MSHRs),
		waiting:     make([][]*TileMsg, arr.NumLines()),
		holder:      holder,
		tilePool:    new(TileMsgPool),
		mesiPool:    fabric.Pool(),
		meter:       meter,
		st:          st,
		cAccesses:   st.Counter(name + ".accesses"),
		cStallWLock: st.Counter(name + ".stall_wlock"),
		cStallGTime: st.Counter(name + ".stall_gtime"),
		cGrantsW:    st.Counter(name + ".grants_write"),
		cGrantsR:    st.Counter(name + ".grants_read"),
		cWBOrphan:   st.Counter(name + ".wb_orphan"),
		cWBIn:       st.Counter(name + ".writebacks_in"),
		cMSHRFull:   st.Counter(name + ".mshr_full"),
		cMisses:     st.Counter(name + ".misses"),
		cSynEvict:   st.Counter(name + ".synonym_evictions"),
		cEvictions:  st.Counter(name + ".evictions"),
		cHostFwds:   st.Counter(name + ".host_fwds"),
		cFwdStalled: st.Counter(name + ".fwd_stalled"),
	}
	if cfg.LeaseSlack == 0 {
		x.cfg.LeaseSlack = 1
	}
	fabric.Register(agent, x.HandleMESI)
	return x
}

// LeaseGrants counts the read and write leases granted so far.
func (x *L1X) LeaseGrants() int64 { return x.cGrantsR.Value() + x.cGrantsW.Value() }

// HostFwds counts the directory's forwards this L1X has answered.
func (x *L1X) HostFwds() int64 { return x.cHostFwds.Value() }

// ConnectL0X attaches the downlink to one accelerator's private cache.
func (x *L1X) ConnectL0X(id AXCID, l *interconnect.Link) {
	for int(id) >= len(x.toL0X) {
		x.toL0X = append(x.toL0X, nil)
	}
	x.toL0X[id] = l
}

// Agent returns the tile's MESI agent ID.
func (x *L1X) Agent() mesi.AgentID { return x.agent }

func (x *L1X) access() {
	if x.meter != nil {
		x.meter.Add(energy.CatL1X, x.cfg.AccessPJ)
	}
	x.cAccesses.Inc()
}

// park stores m and returns its slot for a closure-free process event.
func (x *L1X) park(m *TileMsg) uint64 {
	if n := len(x.freeSlots); n > 0 {
		s := x.freeSlots[n-1]
		x.freeSlots = x.freeSlots[:n-1]
		x.parked[s] = m
		return uint64(s)
	}
	x.parked = append(x.parked, m)
	return uint64(len(x.parked) - 1)
}

func (x *L1X) scheduleProcess(delay uint64, m *TileMsg) {
	x.eng.ScheduleCall(delay, x, opL1XProcess, x.park(m))
}

func (x *L1X) scheduleProcessAt(at uint64, m *TileMsg) {
	x.eng.ScheduleCallAt(at, x, opL1XProcess, x.park(m))
}

// HandleEvent dispatches the L1X's closure-free events.
func (x *L1X) HandleEvent(now uint64, op uint8, arg uint64) {
	switch op {
	case opL1XProcess:
		m := x.parked[arg]
		x.parked[arg] = nil
		x.freeSlots = append(x.freeSlots, uint32(arg))
		x.process(m)
	case opL1XSendGetM:
		g := x.mesiPool.Get()
		g.Type, g.Addr, g.Src, g.Dst = mesi.MsgGetM, mem.PAddr(arg), x.agent, mesi.DirID
		x.fabric.Send(g)
	}
}

// HandleTile receives a message from an L0X, paying the bank latency.
func (x *L1X) HandleTile(msg interconnect.Message) {
	m, ok := msg.(*TileMsg)
	if !ok {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "foreign message %v", msg)
	}
	x.scheduleProcess(x.cfg.AccessLat, m)
}

func (x *L1X) process(m *TileMsg) {
	switch m.Type {
	case MsgGetL, MsgGetW:
		x.lease(m)
	case MsgWB:
		x.writeback(m)
		x.tilePool.Put(m)
	default:
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "unexpected tile %s", m)
	}
}

// lease serves a read-lease or write-epoch request. Granted requests release
// m; stalled or missing ones retain it for replay.
func (x *L1X) lease(m *TileMsg) {
	a := uint64(m.Addr.LineAddr())
	x.access()

	if x.filterOn {
		// Demand tracking for the cacheability filter. Replayed waiters
		// recount, but only after the allocate/bypass decision for their
		// fetch was made, so the inflation never flips a decision.
		if p := x.touches.Ptr(a); p != nil {
			*p++
		} else {
			x.touches.Put(a, 1)
		}
	}

	l := x.arr.LookupPID(a, m.PID)
	if l == nil {
		x.missFetch(a, m)
		return
	}
	now := x.eng.Now()
	slot := x.arr.SlotOf(a, l)
	if l.WLock {
		// An outstanding write epoch: everyone stalls at the L1X until the
		// writeback lands (Section 3.2, Figure 4).
		x.waiting[slot] = append(x.waiting[slot], m)
		x.cStallWLock.Inc()
		if x.obsv != nil {
			x.obsv.Record(obs.Event{Cycle: now, Agent: x.name, Kind: obs.WLockStall, Addr: a,
				Peer: int32(m.Src), Msg: m.Type.String()})
		}
		return
	}
	// Requests carry a lease duration; anchor it now so a request that
	// stalled behind an epoch still gets a full-length lease.
	expiry := now + m.Lease
	if m.Type == MsgGetW {
		h := x.holder[slot]
		if h == holderAbsent {
			h = 0 // the address-keyed table read absent entries as zero
		}
		soleOK := h == int(m.Src) || l.GTime <= now
		if !soleOK {
			// Another accelerator may still be reading under its lease;
			// the write epoch cannot open until GTIME passes.
			x.cStallGTime.Inc()
			if x.obsv != nil {
				x.obsv.Record(obs.Event{Cycle: now, Agent: x.name, Kind: obs.GTimeStall, Addr: a,
					Peer: int32(m.Src), Lease: l.GTime})
			}
			x.scheduleProcessAt(l.GTime+x.cfg.LeaseSlack, m)
			return
		}
		l.WLock = true
		x.holder[slot] = int(m.Src)
		if expiry > l.GTime {
			l.GTime = expiry
		}
		x.grant(m, l, true, expiry)
		x.tilePool.Put(m)
		return
	}
	// Read lease. If every previously granted lease has lapsed (GTIME in
	// the past), this requester becomes the sole holder — stale holdership
	// from long-expired leases must not pin the line as "shared".
	if h := x.holder[slot]; h == holderAbsent || h == holderNone || l.GTime <= now {
		x.holder[slot] = int(m.Src)
	} else if h != int(m.Src) {
		x.holder[slot] = holderMultiple
	}
	if expiry > l.GTime {
		l.GTime = expiry
	}
	x.grant(m, l, false, expiry)
	x.tilePool.Put(m)
}

// downlink returns the link to accelerator id's L0X.
func (x *L1X) downlink(id AXCID) *interconnect.Link {
	if int(id) < len(x.toL0X) && x.toL0X[id] != nil {
		return x.toL0X[id]
	}
	sim.Failf(x.name, x.eng.Now(), x.DumpState(), "no downlink to axc %d", id)
	return nil
}

// grant sends a lease response back to the requesting L0X.
func (x *L1X) grant(m *TileMsg, l *cache.Line, write bool, expiry uint64) {
	link := x.downlink(m.Src)
	if write {
		x.cGrantsW.Inc()
	} else {
		x.cGrantsR.Inc()
	}
	if x.obsv != nil {
		kind := obs.LeaseGrant
		if write {
			kind = obs.EpochGrant
		}
		x.obsv.Record(obs.Event{Cycle: x.eng.Now(), Agent: x.name, Kind: kind,
			Addr: uint64(m.Addr.LineAddr()), Ver: l.Ver, Lease: expiry, Peer: int32(m.Src)})
	}
	g := x.tilePool.Get()
	g.Type, g.Addr, g.PID, g.Src = MsgLease, m.Addr, m.PID, -1
	g.Lease, g.Write, g.Ver = expiry, write, l.Ver
	link.Send(g)
}

// writeback accepts dirty data (or an epoch release) from an L0X.
func (x *L1X) writeback(m *TileMsg) {
	a := uint64(m.Addr.LineAddr())
	x.access()
	l := x.arr.LookupPID(a, m.PID)
	if l == nil {
		// The line was reclaimed by a host forward while the L0X held it;
		// the data must still reach the host side. Rare but legal.
		x.cWBOrphan.Inc()
		pa, _ := x.tlb.Translate(m.PID, m.Addr)
		put := x.mesiPool.Get()
		put.Type, put.Addr, put.Src, put.Dst, put.Ver =
			mesi.MsgPutM, pa.LineAddr(), x.agent, mesi.DirID, m.Ver
		x.fabric.Send(put)
		return
	}
	if m.Ver > l.Ver {
		l.Ver = m.Ver
		l.Dirty = true
	}
	// Any non-through writeback closes the epoch. The holder identity is
	// deliberately not checked: under FUSION-Dx the lease migrates to the
	// consumer L0X without informing the L1X (Section 3.2).
	slot := x.arr.SlotOf(a, l)
	if l.WLock && !m.Through {
		l.WLock = false
		x.holder[slot] = holderNone
	}
	x.cWBIn.Inc()
	if !m.Through {
		x.wake(slot)
	}
}

// wake replays stalled lease requests for a line after an epoch closes.
func (x *L1X) wake(slot int) {
	q := x.waiting[slot]
	if len(q) == 0 {
		return
	}
	x.waiting[slot] = q[:0] // keep the capacity for the next epoch
	for i, m := range q {
		x.scheduleProcess(1, m)
		q[i] = nil
	}
}

// missFetch starts (or joins) a host-side fetch. The tile always requests
// exclusive (GetM): the L1X caches every block in E/M regardless of the
// accelerator operation (Section 3.2).
func (x *L1X) missFetch(a uint64, m *TileMsg) {
	if slot := x.mshr.Slot(a); slot >= 0 {
		t := &x.txns[slot]
		t.waiters = append(t.waiters, m)
		return
	}
	if x.mshr.Full() {
		// Retry the request later rather than dropping it.
		x.scheduleProcess(4, m)
		x.cMSHRFull.Inc()
		return
	}
	// AX-TLB sits here, on the miss path (Lesson 8).
	pa, walk := x.tlb.Translate(m.PID, mem.VAddr(a))
	pa = pa.LineAddr()

	// Synonym check (appendix): if the tile already caches this physical
	// line under a different virtual address, evict the duplicate locally —
	// the tile still owns the line, so no host transaction is needed — and
	// rehome the data under the new alias.
	if ptr, ok := x.rmap.Lookup(pa); ok {
		if x.resolveSynonym(a, m, pa, ptr) {
			return
		}
	}

	x.cMisses.Inc()
	t := &x.txns[x.mshr.Allocate(a)]
	*t = l1txn{va: a, pa: pa, pid: m.PID, acksNeeded: -1,
		waiters: append(t.waiters[:0], m)}
	if x.obsv != nil {
		x.obsv.Record(obs.Event{Cycle: x.eng.Now(), Agent: x.name, Kind: obs.L1XFetch, Addr: a, PA: uint64(pa)})
	}
	x.eng.ScheduleCall(walk+1, x, opL1XSendGetM, uint64(pa))
}

// resolveSynonym rehomes a physical line cached under another virtual alias.
// It returns true when the request was handled (served or rescheduled).
func (x *L1X) resolveSynonym(a uint64, m *TileMsg, pa mem.PAddr, ptr vm.Pointer) bool {
	oldVA := uint64(ptr.VAddr.LineAddr())
	if oldVA == a && ptr.PID == m.PID {
		return false // same line; a plain miss race, fall through to fetch
	}
	old := x.arr.LookupPID(oldVA, ptr.PID)
	if old == nil {
		return false
	}
	oldSlot := x.arr.SlotOf(oldVA, old)
	if old.WLock {
		// A write epoch is open under the old alias; retry after it drains.
		x.waiting[oldSlot] = append(x.waiting[oldSlot], m)
		return true
	}
	x.cSynEvict.Inc()
	ver, dirty, gtime := old.Ver, old.Dirty, old.GTime
	x.drop(old)

	l := x.install(a, m.PID, pa, ver)
	if l == nil {
		x.scheduleProcess(2, m)
		return true
	}
	l.Dirty = dirty
	if gtime > l.GTime {
		l.GTime = gtime // stale leases on the old alias must still be honored
	}
	x.scheduleProcess(1, m)
	return true
}

// HandleMESI is the tile's endpoint on the host fabric. Messages consumed
// synchronously are released here; forwards and invalidations hand
// ownership to answerHost.
func (x *L1X) HandleMESI(m *mesi.Msg) {
	switch m.Type {
	case mesi.MsgData, mesi.MsgDataE, mesi.MsgDataM:
		x.fillFromHost(m)
		x.mesiPool.Put(m)
	case mesi.MsgFwdGetS, mesi.MsgFwdGetM, mesi.MsgInv:
		// An Inv is a DMA write targeting a line the tile owns (mixed
		// placements, see internal/systems ADAPTIVE): the tile relinquishes
		// for real, and the ack carries the dirty version back to the
		// directory.
		x.hostRequest(m)
	case mesi.MsgPutAck:
		x.evict.Take(uint64(m.Addr.LineAddr()))
		x.mesiPool.Put(m)
	case mesi.MsgInvAck:
		// GetM with requester-collected acks: the tile counts them like any
		// other requester. Tracked on the txn below.
		x.invAck(m)
		x.mesiPool.Put(m)
	default:
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "unexpected host %s", m)
	}
}

// slotByPA finds the pending fetch for a physical line by walking the MSHR
// occupancy bitmap (the txn records the translation).
func (x *L1X) slotByPA(pa mem.PAddr) int {
	for w := x.mshr.Occupied(); w != 0; w &= w - 1 {
		s := bits.TrailingZeros64(w)
		if x.txns[s].pa == pa {
			return s
		}
	}
	return -1
}

// invAck notes one invalidation ack for a pending exclusive fetch.
func (x *L1X) invAck(m *mesi.Msg) {
	slot := x.slotByPA(m.Addr.LineAddr())
	if slot < 0 {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "InvAck with no fetch: %s", m)
	}
	t := &x.txns[slot]
	t.acksGot++
	x.maybeFill(t)
}

// fillFromHost completes a fetch once data (and acks) arrive.
func (x *L1X) fillFromHost(m *mesi.Msg) {
	pa := m.Addr.LineAddr()
	slot := x.slotByPA(pa)
	if slot < 0 {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "data with no fetch: %s", m)
	}
	t := &x.txns[slot]
	t.arrived = true
	t.ver = m.Ver
	if t.acksNeeded == -1 {
		t.acksNeeded = m.AckCount
	}
	x.maybeFill(t)
}

// maybeFill installs a completed fetch (or bypasses it) and replays its
// waiters. The record stays readable after Free until missFetch allocates
// the slot again: the waiter loops only schedule work.
func (x *L1X) maybeFill(t *l1txn) {
	if !t.arrived || t.acksGot < t.acksNeeded {
		return
	}
	if x.filterOn && x.bypassDecision(t) {
		x.bypassFill(t)
		return
	}
	l := x.install(t.va, t.pid, t.pa, t.ver)
	if l == nil {
		x.eng.Schedule(2, func(uint64) { x.maybeFill(t) })
		return
	}
	x.closeFetch(t)
	for _, w := range t.waiters {
		x.scheduleProcess(1, w)
	}
}

// closeFetch frees t's MSHR slot and unblocks the directory: the host
// fetch has resolved.
func (x *L1X) closeFetch(t *l1txn) {
	x.mshr.Free(t.va)
	x.eng.Progress() // host fetch resolved: heartbeat
	unb := x.mesiPool.Get()
	unb.Type, unb.Addr, unb.Src, unb.Dst, unb.Excl =
		mesi.MsgUnblock, t.pa, x.agent, mesi.DirID, true
	x.fabric.Send(unb)
}

// bypassDecision reports whether the completed fetch t should skip
// allocation. Only pure-load fetches are eligible — a waiting store needs
// a write epoch, which only an installed line can host. The deadline term
// wins over the reuse term so deadline bypasses are attributed to it.
func (x *L1X) bypassDecision(t *l1txn) bool {
	if len(t.waiters) == 0 {
		return false
	}
	for _, w := range t.waiters {
		if w.Type != MsgGetL {
			return false
		}
	}
	if x.meter != nil {
		x.meter.Add(energy.CatPolicy, x.bypassPJ)
	}
	if x.deadline != 0 && x.eng.Now() >= x.deadline &&
		(x.mut == nil || !x.mut.IgnoreDeadline) {
		x.cBypassDeadline.Inc()
		return true
	}
	if n, _ := x.touches.Get(t.va); int(n) < x.bypassThreshold {
		x.cBypassAlloc.Inc()
		return true
	}
	return false
}

// bypassFill completes a filtered fetch without allocating: every waiting
// load receives the fetched data one-shot (MsgLease with NoAlloc set and a
// zero lease), the directory transaction is unblocked, and ownership is
// relinquished immediately — the clean line never enters the array. The
// eviction buffer holds the data until PutAck so a racing host forward is
// still served.
func (x *L1X) bypassFill(t *l1txn) {
	for _, w := range t.waiters {
		link := x.downlink(w.Src)
		g := x.tilePool.Get()
		g.Type, g.Addr, g.PID, g.Src = MsgLease, w.Addr, w.PID, -1
		g.Ver, g.NoAlloc = t.ver, true
		link.Send(g)
		x.tilePool.Put(w)
	}
	x.closeFetch(t)
	x.evict.Put(uint64(t.pa), t.ver, false)
	put := x.mesiPool.Get()
	put.Type, put.Addr, put.Src, put.Dst = mesi.MsgPutE, t.pa, x.agent, mesi.DirID
	x.fabric.Send(put)
}

// install places a host-fetched line in the array.
func (x *L1X) install(va uint64, pid mem.PID, pa mem.PAddr, ver uint64) *cache.Line {
	v := x.arr.VictimUnpinned(va, x.pinned)
	if v == nil {
		return nil
	}
	x.evictLine(v)
	x.arr.Fill(v, va, pid)
	x.access()
	v.State = cache.Exclusive
	v.PAddr = pa
	v.Ver = ver
	// Synonym: only one virtual alias may live in the tile (appendix). The
	// old alias goes first, since dropping it removes pa's AX-RMAP entry,
	// which must name the new alias once it is inserted. The check rides on
	// the insert, so it is not an AX-RMAP lookup of its own.
	if prev, ok := x.rmap.Lookupless(pa); ok && prev.VAddr.LineAddr() != mem.VAddr(va).LineAddr() {
		if old := x.arr.Peek(uint64(prev.VAddr.LineAddr())); old != nil && old.PAddr == pa {
			x.evictNoNotice(old)
		}
		x.cSynEvict.Inc()
	}
	x.rmap.Insert(pa, vm.Pointer{VAddr: mem.VAddr(va), PID: pid})
	return v
}

// pinned reports whether a line must not be chosen as a victim: it has a
// pending transaction, an open write epoch or a live lease — evicting a
// leased line would break the GTIME contract.
func (x *L1X) pinned(l *cache.Line) bool {
	return x.mshr.Slot(l.Addr) >= 0 || l.WLock || l.GTime > x.eng.Now()
}

// drop removes a valid line from the tile: its AX-RMAP entry, its lease
// holder and its tag. Every path that gives a line up ends here.
func (x *L1X) drop(l *cache.Line) {
	x.rmap.Remove(l.PAddr)
	x.holder[x.arr.SlotOf(l.Addr, l)] = holderAbsent
	*l = cache.Line{}
}

// evictLine pushes a victim back to the host: PutM when dirty, otherwise an
// explicit eviction notice (the tile never drops silently — the directory
// keeps perfect information, Section 3.2).
func (x *L1X) evictLine(v *cache.Line) {
	if !v.Valid {
		return
	}
	x.cEvictions.Inc()
	x.evict.Put(uint64(v.PAddr), v.Ver, v.Dirty)
	put := x.mesiPool.Get()
	put.Type, put.Addr, put.Src, put.Dst = mesi.MsgPutE, v.PAddr, x.agent, mesi.DirID
	if v.Dirty {
		put.Type, put.Ver = mesi.MsgPutM, v.Ver
	}
	x.fabric.Send(put)
	x.drop(v)
}

// evictNoNotice drops a synonym duplicate, writing back dirty data.
func (x *L1X) evictNoNotice(v *cache.Line) {
	if v.Dirty {
		put := x.mesiPool.Get()
		put.Type, put.Addr, put.Src, put.Dst, put.Ver =
			mesi.MsgPutM, v.PAddr, x.agent, mesi.DirID, v.Ver
		x.fabric.Send(put)
	}
	x.drop(v)
}

// hostRequest answers a directory forward (FwdGetS, FwdGetM) or
// invalidation (Inv) for a line the tile may own. The AX-RMAP resolves the
// physical address to the virtually-indexed line; relinquish then drops the
// line once its L0X leases have lapsed (Figure 4, right). Consumes m.
func (x *L1X) hostRequest(m *mesi.Msg) {
	pa := m.Addr.LineAddr()
	if m.Type != mesi.MsgInv {
		x.cHostFwds.Inc()
		if x.obsv != nil {
			x.obsv.Record(obs.Event{Cycle: x.eng.Now(), Agent: x.name, Kind: obs.HostFwdIn, Addr: uint64(pa),
				Msg: m.Type.String()})
		}
	}
	ptr, ok := x.rmap.Lookup(pa)
	if !ok {
		x.answerEvicted(m)
		return
	}
	x.relinquish(m, ptr, true)
}

// relinquish drops the line ptr names and answers m once every L0X lease on
// it has lapsed and any write epoch has drained. Until then the answer
// waits in the writeback buffer: the L1X alone absorbs the stall, and no
// message ever disturbs an L0X (Figure 4, right). Retries reuse the
// resolved pointer (no extra RMAP lookups).
func (x *L1X) relinquish(m *mesi.Msg, ptr vm.Pointer, first bool) {
	l := x.arr.LookupPID(uint64(ptr.VAddr.LineAddr()), ptr.PID)
	if l == nil {
		x.answerEvicted(m)
		return
	}
	if wake, wait := x.leaseWait(l, m, first); wait {
		x.eng.ScheduleAt(wake, func(uint64) { x.relinquish(m, ptr, false) })
		return
	}
	x.access()
	ver, dirty := l.Ver, l.Dirty
	x.drop(l)
	x.answerHost(m, ver, dirty)
}

// leaseWait reports whether l still has L0X leases or an open write epoch,
// and if so the cycle to retry m at: GTIME plus the lease slack, or the
// slack from now once GTIME has passed. The first park of a request
// (first) is counted and observed as a parked forward, named "inv" for an
// invalidation.
func (x *L1X) leaseWait(l *cache.Line, m *mesi.Msg, first bool) (wake uint64, wait bool) {
	now := x.eng.Now()
	if l.GTime <= now && !l.WLock {
		return 0, false
	}
	if first {
		x.cFwdStalled.Inc()
		if x.obsv != nil {
			msg := ""
			if m.Type == mesi.MsgInv {
				msg = "inv"
			}
			x.obsv.Record(obs.Event{Cycle: now, Agent: x.name, Kind: obs.FwdParked, Addr: l.Addr,
				Msg: msg, Lease: l.GTime})
		}
	}
	wake = l.GTime + x.cfg.LeaseSlack
	if wake <= now {
		wake = now + x.cfg.LeaseSlack
	}
	return wake, true
}

// answerEvicted answers m for a line that is no longer resident, from the
// eviction buffer. An Inv reads the buffered version, if any (the line may
// never have been cached here), and leaves the entry for the PutAck. A
// forward takes the entry: an eviction raced with it, and nothing else can
// explain a forward to a line the tile does not hold.
func (x *L1X) answerEvicted(m *mesi.Msg) {
	pa := uint64(m.Addr.LineAddr())
	if m.Type == mesi.MsgInv {
		ver, dirty, _ := x.evict.Get(pa)
		x.answerHost(m, ver, dirty)
		return
	}
	ver, dirty, ok := x.evict.Take(pa)
	if !ok {
		sim.Failf(x.name, x.eng.Now(), x.DumpState(), "host fwd for a line the tile does not hold %s", m)
	}
	x.answerHost(m, ver, dirty)
}

// answerHost answers m with the dropped line's version and releases m. An
// Inv gets an InvAck to its requester; the version rides on it so the
// directory can merge the tile's stores before committing the DMA data. A
// forward relinquishes the line: data goes directly to the requester, an
// eviction notice (OwnerAck, dropped) to the directory.
func (x *L1X) answerHost(m *mesi.Msg, ver uint64, dirty bool) {
	if m.Type == mesi.MsgInv {
		ack := x.mesiPool.Get()
		ack.Type, ack.Addr, ack.Src, ack.Dst = mesi.MsgInvAck, m.Addr, x.agent, m.Requester
		ack.Dirty, ack.Ver = dirty, ver
		x.fabric.Send(ack)
		x.mesiPool.Put(m)
		return
	}
	if x.obsv != nil {
		x.obsv.Record(obs.Event{Cycle: x.eng.Now(), Agent: x.name, Kind: obs.Relinquish,
			Addr: uint64(m.Addr.LineAddr()), Peer: int32(m.Requester), Dirty: dirty})
	}
	dt := mesi.MsgData
	if m.Type == mesi.MsgFwdGetM {
		dt = mesi.MsgDataM
	}
	data := x.mesiPool.Get()
	data.Type, data.Addr, data.Src, data.Dst, data.Ver = dt, m.Addr, x.agent, m.Requester, ver
	x.fabric.Send(data)
	ack := x.mesiPool.Get()
	ack.Type, ack.Addr, ack.Src, ack.Dst = mesi.MsgOwnerAck, m.Addr, x.agent, mesi.DirID
	ack.Dirty, ack.Dropped, ack.Ver = dirty, true, ver
	x.fabric.Send(ack)
	x.mesiPool.Put(m)
}

// FlushAll writes every dirty line back to the host and invalidates the
// tile (end of workload).
func (x *L1X) FlushAll() {
	x.arr.ForEach(func(l *cache.Line) {
		x.evictLine(l)
	})
}

// Outstanding reports in-flight host fetches plus eviction buffers.
func (x *L1X) Outstanding() int { return x.mshr.Len() + x.evict.Len() }

// DumpState summarizes in-flight host fetches, stalled lease requests, and
// eviction buffers for watchdog/failure diagnostics. Empty when idle.
func (x *L1X) DumpState() string {
	stalled := 0
	for slot := range x.waiting {
		if len(x.waiting[slot]) > 0 {
			stalled++
		}
	}
	if x.mshr.Len() == 0 && stalled == 0 && x.evict.Len() == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d host fetches, %d wlock queues, %d evict buffers, %d/%d MSHRs\n",
		x.name, x.mshr.Len(), stalled, x.evict.Len(), x.mshr.Len(), x.cfg.MSHRs)
	for _, va := range x.mshr.Outstanding() {
		t := &x.txns[x.mshr.Slot(va)]
		fmt.Fprintf(&b, "  fetch va=%#x pa=%#x arrived=%v acks=%d/%d waiters=%d\n",
			t.va, uint64(t.pa), t.arrived, t.acksGot, t.acksNeeded, len(t.waiters))
	}
	type stall struct {
		va uint64
		n  int
	}
	var stalls []stall
	for slot := range x.waiting {
		if n := len(x.waiting[slot]); n > 0 {
			stalls = append(stalls, stall{x.arr.LineAt(slot).Addr, n})
		}
	}
	sort.Slice(stalls, func(i, j int) bool { return stalls[i].va < stalls[j].va })
	for _, s := range stalls {
		fmt.Fprintf(&b, "  wlock-stalled va=%#x waiters=%d\n", s.va, s.n)
	}
	return b.String()
}

// Peek exposes a line for tests.
func (x *L1X) Peek(va mem.VAddr, pid mem.PID) *cache.Line {
	l := x.arr.Peek(uint64(va.LineAddr()))
	if l != nil && l.PID != pid {
		return nil
	}
	return l
}
