package acc

import (
	"math/rand"
	"testing"

	"fusion/internal/accel"
	"fusion/internal/cache"
	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/vm"
)

const tileAgent mesi.AgentID = 2

type harness struct {
	eng  *sim.Engine
	fab  *mesi.Fabric
	dir  *mesi.Directory
	tile *Tile
	host *mesi.Client
	pt   *vm.PageTable
	st   *stats.Set
	mt   *energy.Meter
}

func newHarness(t *testing.T, numAXCs int, dx bool) *harness {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	dir := mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	dir.TileAgent = tileAgent
	host := mesi.NewClient(fab, 1, mesi.DefaultHostL1Config(model), model, mt, st)
	pt := vm.NewPageTable()
	cfg := SmallTileConfig(numAXCs, model)
	cfg.Agent = tileAgent
	cfg.EnableDx = dx
	tile := NewTile(eng, fab, pt, cfg, model, mt, st)
	return &harness{eng: eng, fab: fab, dir: dir, tile: tile, host: host,
		pt: pt, st: st, mt: mt}
}

// The L0X is a fixed-latency port.
var _ accel.TimedPort = (*L0X)(nil)

// TestL0XAccessTimed: a miss reports latency 0 and completes through done;
// a hit reports the hit latency and neither schedules an event nor calls
// done.
func TestL0XAccessTimed(t *testing.T) {
	h := newHarness(t, 1, false)
	l0 := h.tile.L0Xs[0]
	l0.SetLeaseTime(1 << 30)
	fired := false
	if lat, ok := l0.AccessTimed(mem.Load, 0x1000, func(uint64) { fired = true }); !ok || lat != 0 {
		t.Fatalf("miss: latency %d, accepted %v; want 0, true", lat, ok)
	}
	h.run(t, 200000, func() bool { return fired })
	pending := h.eng.Pending()
	lat, ok := l0.AccessTimed(mem.Load, 0x1008, func(uint64) { t.Error("the hit called done") })
	if !ok || lat != l0.cfg.HitLatency || lat == 0 || h.eng.Pending() != pending {
		t.Fatalf("hit: latency %d, accepted %v, %d events pending (was %d); want %d, true, unchanged",
			lat, ok, h.eng.Pending(), pending, l0.cfg.HitLatency)
	}
	h.advance(4)
}

func (h *harness) run(t *testing.T, max uint64, pred func() bool) {
	t.Helper()
	if _, done := h.eng.Run(max, pred); !done {
		t.Fatalf("did not converge in %d cycles (now=%d)", max, h.eng.Now())
	}
}

func (h *harness) axcDo(t *testing.T, axc int, kind mem.AccessKind, va mem.VAddr) {
	t.Helper()
	fired := false
	l0 := h.tile.L0Xs[axc]
	if !l0.Access(kind, va, func(uint64) { fired = true }) {
		t.Fatal("L0X MSHR full on idle cache")
	}
	h.run(t, 200000, func() bool { return fired })
}

func (h *harness) hostDo(t *testing.T, kind mem.AccessKind, va mem.VAddr) {
	t.Helper()
	pa := h.pt.Translate(1, va)
	fired := false
	if !h.host.Access(kind, pa.LineAddr(), func(uint64) { fired = true }) {
		t.Fatal("host MSHR full")
	}
	h.run(t, 200000, func() bool { return fired })
}

func (h *harness) advance(cycles uint64) {
	for i := uint64(0); i < cycles; i++ {
		h.eng.Step()
	}
}

func TestColdLoadThroughFullStack(t *testing.T) {
	h := newHarness(t, 2, false)
	h.axcDo(t, 0, mem.Load, 0x1000)

	l0 := h.tile.L0Xs[0].Peek(0x1000)
	if l0 == nil || l0.LTime <= h.eng.Now() {
		t.Fatalf("L0X line = %+v, want live lease", l0)
	}
	l1 := h.tile.L1X.Peek(0x1000, 1)
	if l1 == nil || l1.State != cache.Exclusive {
		t.Fatalf("L1X line = %+v, want Exclusive", l1)
	}
	// The tile appears as the exclusive MESI owner.
	pa := h.pt.Translate(1, 0x1000).LineAddr()
	state, owner, _ := h.dir.Sharers(pa)
	if state != "E" || owner != tileAgent {
		t.Fatalf("dir = %s/%d, want E/tile", state, owner)
	}
	// Exactly one AX-TLB lookup (the miss path), RMAP populated.
	if h.st.Get("axtlb.lookups") != 1 {
		t.Fatalf("axtlb.lookups = %d, want 1", h.st.Get("axtlb.lookups"))
	}
	if h.tile.RMAP.Len() != 1 {
		t.Fatalf("rmap len = %d, want 1", h.tile.RMAP.Len())
	}
}

func TestL0XHitNoTileTraffic(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Load, 0x1000)
	l1acc := h.st.Get("l1x.accesses")
	h.axcDo(t, 0, mem.Load, 0x1010) // same line, live lease
	if h.st.Get("l1x.accesses") != l1acc {
		t.Fatal("L0X hit reached the L1X")
	}
	if h.st.Get("l0x.0.hits") != 1 {
		t.Fatalf("l0x hits = %d, want 1", h.st.Get("l0x.0.hits"))
	}
}

func TestLeaseExpirySelfInvalidates(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Load, 0x2000)
	h.advance(600) // default lease is 500
	misses := h.st.Get("l0x.0.misses")
	h.axcDo(t, 0, mem.Load, 0x2000)
	if h.st.Get("l0x.0.misses") != misses+1 {
		t.Fatal("expired lease did not miss")
	}
	if h.st.Get("l0x.0.self_invalidations") == 0 {
		t.Fatal("no self-invalidation recorded")
	}
	// Crucially, zero invalidation messages were needed.
	if h.st.Get("l0x.0.invalidations") != 0 {
		t.Fatal("self-invalidation protocol sent invalidations")
	}
}

func TestStoreTakesWriteEpochAndWritesBack(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Store, 0x3000)
	l0 := h.tile.L0Xs[0].Peek(0x3000)
	if l0 == nil || !l0.Dirty || l0.WTime <= h.eng.Now() || l0.Ver != 1 {
		t.Fatalf("L0X line = %+v, want dirty v1 with live epoch", l0)
	}
	l1 := h.tile.L1X.Peek(0x3000, 1)
	if !l1.WLock {
		t.Fatal("L1X not write-locked during epoch")
	}
	// Let the epoch expire: self-downgrade writes back.
	h.advance(600)
	if h.tile.L0Xs[0].Peek(0x3000) != nil {
		t.Fatal("line survived its write epoch")
	}
	l1 = h.tile.L1X.Peek(0x3000, 1)
	if l1 == nil || l1.WLock || !l1.Dirty || l1.Ver != 1 {
		t.Fatalf("L1X after WB = %+v, want unlocked dirty v1", l1)
	}
	if h.st.Get("l0x.0.self_downgrades") != 1 {
		t.Fatalf("self_downgrades = %d", h.st.Get("l0x.0.self_downgrades"))
	}
}

func TestInterAXCSharingStaysInTile(t *testing.T) {
	h := newHarness(t, 2, false)
	h.axcDo(t, 0, mem.Store, 0x4000) // producer writes v1
	h.tile.L0Xs[0].Drain()           // invocation ends: WB to L1X
	h.advance(20)
	hostGets := h.st.Get("dir.GetM")
	h.axcDo(t, 1, mem.Load, 0x4000) // consumer reads
	l0 := h.tile.L0Xs[1].Peek(0x4000)
	if l0 == nil || l0.Ver != 1 {
		t.Fatalf("consumer line = %+v, want v1", l0)
	}
	if h.st.Get("dir.GetM") != hostGets {
		t.Fatal("inter-AXC transfer escaped to the host (the DMA ping-pong FUSION eliminates)")
	}
}

func TestReaderStallsOnWriteEpochUntilWriteback(t *testing.T) {
	h := newHarness(t, 2, false)
	h.axcDo(t, 0, mem.Store, 0x5000) // AXC0 holds write epoch
	var readerDone uint64
	h.tile.L0Xs[1].Access(mem.Load, 0x5000, func(now uint64) { readerDone = now })
	// Reader must not complete while the epoch is open.
	h.advance(100)
	if readerDone != 0 {
		t.Fatal("reader completed during another AXC's write epoch")
	}
	if h.st.Get("l1x.stall_wlock") == 0 {
		t.Fatal("no WLock stall recorded")
	}
	// Drain the producer: the writeback should release the reader.
	h.tile.L0Xs[0].Drain()
	h.run(t, 10000, func() bool { return readerDone != 0 })
	l0 := h.tile.L0Xs[1].Peek(0x5000)
	if l0 == nil || l0.Ver != 1 {
		t.Fatalf("reader line = %+v, want v1", l0)
	}
}

func TestWriterStallsOnForeignReadLease(t *testing.T) {
	h := newHarness(t, 2, false)
	h.axcDo(t, 0, mem.Load, 0x6000) // AXC0 read lease until ~now+500
	var writeDone uint64
	h.tile.L0Xs[1].Access(mem.Store, 0x6000, func(now uint64) { writeDone = now })
	h.advance(100)
	if writeDone != 0 {
		t.Fatal("write epoch opened under a foreign read lease")
	}
	if h.st.Get("l1x.stall_gtime") == 0 {
		t.Fatal("no GTIME stall recorded")
	}
	h.run(t, 10000, func() bool { return writeDone != 0 })
}

func TestSameAXCUpgradeDoesNotStall(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Load, 0x6100)
	start := h.eng.Now()
	h.axcDo(t, 0, mem.Store, 0x6100) // Figure 4: R lease then W epoch, same AXC
	if h.eng.Now()-start > 50 {
		t.Fatalf("sole-holder upgrade took %d cycles", h.eng.Now()-start)
	}
	if h.st.Get("l1x.stall_gtime") != 0 {
		t.Fatal("sole-holder upgrade stalled on its own lease")
	}
}

func TestHostForwardWaitsForGTime(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Store, 0x7000) // tile holds write epoch (≈500 cycles)
	start := h.eng.Now()
	h.hostDo(t, mem.Load, 0x7000) // host read: Fwd stalls until lease lapses
	elapsed := h.eng.Now() - start
	if elapsed < 300 {
		t.Fatalf("host read completed in %d cycles; it should have stalled on GTIME", elapsed)
	}
	if h.st.Get("l1x.fwd_stalled") == 0 {
		t.Fatal("no stalled-forward recorded")
	}
	pa := h.pt.Translate(1, 0x7000).LineAddr()
	if l := h.host.Peek(pa); l == nil || l.Ver != 1 {
		t.Fatalf("host line = %+v, want v1", l)
	}
	// Tile relinquished: MEI, no shared state.
	if h.tile.L1X.Peek(0x7000, 1) != nil {
		t.Fatal("tile kept the line after a host forward")
	}
	if h.tile.RMAP.Len() != 0 {
		t.Fatal("RMAP entry leaked after relinquish")
	}
	if h.st.Get("axrmap.lookups") == 0 {
		t.Fatal("forward did not consult the AX-RMAP")
	}
}

func TestHostForwardFastWhenLeaseExpired(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Store, 0x7100)
	h.advance(700) // epoch over, data back in L1X
	start := h.eng.Now()
	h.hostDo(t, mem.Load, 0x7100)
	if e := h.eng.Now() - start; e > 200 {
		t.Fatalf("host read took %d cycles after lease expiry", e)
	}
}

func TestNoFwdMessagesReachL0X(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Store, 0x7200)
	h.hostDo(t, mem.Load, 0x7200)
	// The L0X never participates in host coherence: its only inbound
	// messages are lease grants and Dx forwards. The line self-invalidated
	// by lease expiry; no message count exists to check beyond grants.
	if got := h.st.Get("l1x.host_fwds"); got != 1 || h.tile.L1X.HostFwds() != 1 {
		t.Fatalf("host_fwds = %d, HostFwds() = %d, want 1", got, h.tile.L1X.HostFwds())
	}
	if h.st.Get("l0x.0.invalidations") != 0 {
		t.Fatal("an invalidation reached an L0X")
	}
}

func TestDxForwardProducerToConsumer(t *testing.T) {
	h := newHarness(t, 2, true)
	// Post-processing marks the store for forwarding (Section 3.2).
	h.tile.L0Xs[0].MarkForward(0x8000, 1)
	h.axcDo(t, 0, mem.Store, 0x8000)
	h.tile.L0Xs[0].Drain() // producer done: pushes to consumer's L0X
	h.run(t, 10000, func() bool { return h.st.Get("l0x.1.fwd_in") == 1 })

	if h.st.Get("l0x.0.fwd_out") != 1 {
		t.Fatal("producer did not forward")
	}
	// Consumer hits locally without an L1X grant.
	grants := h.st.Get("l1x.grants_read")
	h.axcDo(t, 1, mem.Load, 0x8000)
	if h.st.Get("l1x.grants_read") != grants {
		t.Fatal("consumer load needed an L1X grant despite the forward")
	}
	l0 := h.tile.L0Xs[1].Peek(0x8000)
	if l0 == nil || l0.Ver != 1 || !l0.Dirty {
		t.Fatalf("consumer line = %+v, want dirty v1", l0)
	}
	// The consumer eventually writes back; the L1X regains the data.
	h.advance(700)
	l1 := h.tile.L1X.Peek(0x8000, 1)
	if l1 == nil || l1.Ver != 1 || l1.WLock {
		t.Fatalf("L1X after consumer WB = %+v, want v1 unlocked", l1)
	}
}

// A consumer that misses before the producer's push: its load and a store
// merged behind it wait at the L1X behind the producer's write epoch, and
// the Dx forward satisfies both. The L1X's grant for the stalled miss,
// released once the consumer writes back, then finds no transaction.
func TestDxForwardSatisfiesPendingMiss(t *testing.T) {
	h := newHarness(t, 2, true)
	prod, cons := h.tile.L0Xs[0], h.tile.L0Xs[1]
	var seen obs.Collector
	cons.SetObserver(&seen)
	prod.MarkForward(0x8000, 1)
	h.axcDo(t, 0, mem.Store, 0x8000) // the producer holds the epoch at v1

	var loadAt, storeAt []uint64
	if !cons.Access(mem.Load, 0x8000, func(now uint64) { loadAt = append(loadAt, now) }) ||
		!cons.Access(mem.Store, 0x8010, func(now uint64) { storeAt = append(storeAt, now) }) {
		t.Fatal("L0X MSHR full on an idle cache")
	}
	h.run(t, 1000, func() bool { return h.st.Get("l1x.stall_wlock") == 1 })
	if cons.Outstanding() != 1 || h.st.Get("l0x.1.misses") != 1 {
		t.Fatalf("consumer: %d open misses of %d, want the load and store merged in one",
			cons.Outstanding(), h.st.Get("l0x.1.misses"))
	}

	prod.Drain() // the producer pushes the dirty line to the consumer
	h.run(t, 1000, func() bool { return len(loadAt)+len(storeAt) == 2 })
	arrived := seen.Filter(obs.Load)
	if len(arrived) != 1 || arrived[0].Ver != 1 {
		t.Fatalf("consumer loads = %v, want one observing v1", arrived)
	}
	want := arrived[0].Cycle + cons.cfg.HitLatency
	if loadAt[0] != want || storeAt[0] != want {
		t.Fatalf("waiters done at %d and %d, want both at %d (forward at %d + hit latency)",
			loadAt[0], storeAt[0], want, arrived[0].Cycle)
	}
	if st := seen.Filter(obs.Store); len(st) != 1 || st[0].Ver != 2 {
		t.Fatalf("consumer stores = %v, want one bumping v1 to v2", st)
	}
	if l := cons.Peek(0x8000); l == nil || l.Ver != 2 || !l.Dirty || cons.Outstanding() != 0 {
		t.Fatalf("consumer line = %+v with %d open misses, want dirty v2 and none",
			l, cons.Outstanding())
	}

	// The consumer's writeback closes the epoch and releases the stalled
	// miss; its grant finds no transaction and is dropped.
	grants := h.st.Get("l1x.grants_read")
	cons.Drain()
	h.run(t, 1000, func() bool { return h.st.Get("l1x.grants_read") == grants+1 })
	h.advance(10)
	if len(loadAt) != 1 || len(storeAt) != 1 || cons.Outstanding() != 0 ||
		h.st.Get("l0x.1.misses") != 1 || h.st.Get("l0x.1.dead_grants") != 0 {
		t.Fatalf("after the late grant: load done %v, store done %v, %d open, %d misses, %d dead grants",
			loadAt, storeAt, cons.Outstanding(), h.st.Get("l0x.1.misses"), h.st.Get("l0x.1.dead_grants"))
	}
	if l := h.tile.L1X.Peek(0x8000, 1); l == nil || l.Ver != 2 || l.WLock {
		t.Fatalf("L1X line = %+v, want v2 unlocked", l)
	}
	if bad := h.tile.CheckInvariants(h.eng.Now()); len(bad) > 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

func TestDxSavesTileLinkEnergy(t *testing.T) {
	run := func(dx bool) (tile, fwd float64) {
		h := newHarness(t, 2, dx)
		if dx {
			h.tile.L0Xs[0].MarkForward(0x8000, 1)
		}
		h.axcDo(t, 0, mem.Store, 0x8000)
		h.tile.L0Xs[0].Drain()
		h.advance(50)
		h.axcDo(t, 1, mem.Load, 0x8000)
		return h.mt.Get(energy.CatLinkTile), h.mt.Get(energy.CatLinkFwd)
	}
	tileNoDx, fwdNoDx := run(false)
	tileDx, fwdDx := run(true)
	if fwdNoDx != 0 {
		t.Fatal("forwarding energy without Dx")
	}
	if !(tileDx < tileNoDx) {
		t.Fatalf("Dx tile-link energy %v not below baseline %v", tileDx, tileNoDx)
	}
	if fwdDx == 0 {
		t.Fatal("no forwarding-link energy under Dx")
	}
	// The forward path is far cheaper than what it replaced.
	if fwdDx >= (tileNoDx - tileDx) {
		t.Fatalf("forward cost %v should be well under the saved %v", fwdDx, tileNoDx-tileDx)
	}
}

func TestWriteThroughBandwidth(t *testing.T) {
	countFlits := func(wt bool) int64 {
		eng := sim.NewEngine()
		st := stats.NewSet()
		mt := energy.NewMeter()
		model := energy.Default()
		fab := mesi.NewFabric(eng, mt, st)
		d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
		mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
		pt := vm.NewPageTable()
		cfg := SmallTileConfig(1, model)
		cfg.Agent = tileAgent
		cfg.L0X.WriteThrough = wt
		tile := NewTile(eng, fab, pt, cfg, model, mt, st)
		done := 0
		var issue func(i int)
		issue = func(i int) {
			if i >= 64 {
				return
			}
			va := mem.VAddr(0x9000) // same line: 64 stores
			tile.L0Xs[0].Access(mem.Store, va, func(uint64) { done++; issue(i + 1) })
		}
		issue(0)
		eng.Run(100000, func() bool { return done == 64 })
		tile.L0Xs[0].Drain()
		eng.Run(10000, nil)
		if up, _ := tile.Links(); up.Flits != st.Get("link.l0x0.up.flits") {
			t.Fatalf("Links up flits = %d, link.l0x0.up.flits = %d", up.Flits, st.Get("link.l0x0.up.flits"))
		}
		return st.Get("link.l0x0.up.flits")
	}
	wb := countFlits(false)
	wt := countFlits(true)
	if wt < 10*wb {
		t.Fatalf("write-through flits %d not ≫ writeback flits %d (Table 4 shape)", wt, wb)
	}
}

func TestL1XEvictionNotifiesDirectory(t *testing.T) {
	h := newHarness(t, 1, false)
	// L1X: 64KB/8-way/64B = 128 sets; same-set stride = 128*64 = 8192.
	h.tile.L0Xs[0].SetLeaseTime(10) // short leases so lines become evictable
	for i := 0; i < 10; i++ {
		h.axcDo(t, 0, mem.Load, mem.VAddr(0x10000+i*8192))
		h.advance(20) // let each lease lapse
	}
	h.run(t, 200000, func() bool { return h.tile.Outstanding() == 0 })
	if h.st.Get("l1x.evictions") < 2 {
		t.Fatalf("evictions = %d, want ≥ 2", h.st.Get("l1x.evictions"))
	}
	// Evictions are explicit: dir received PutE/PutM notices from the tile.
	if h.st.Get("dir.PutE")+h.st.Get("dir.PutM") < 2 {
		t.Fatal("tile evicted silently")
	}
}

func TestSequentialGoldenVersions(t *testing.T) {
	h := newHarness(t, 2, false)
	rng := rand.New(rand.NewSource(11))
	golden := map[uint64]uint64{}
	lines := []mem.VAddr{0x0, 0x1000, 0x2000, 0x8000}
	for i := 0; i < 200; i++ {
		axc := rng.Intn(2)
		va := lines[rng.Intn(len(lines))]
		if rng.Intn(2) == 0 {
			h.axcDo(t, axc, mem.Store, va)
			golden[uint64(va)]++
		} else {
			h.axcDo(t, axc, mem.Load, va)
			l := h.tile.L0Xs[axc].Peek(va)
			if l == nil {
				t.Fatalf("op %d: loaded line %#x missing", i, uint64(va))
			}
			if l.Ver != golden[uint64(va)] {
				t.Fatalf("op %d: axc%d line %#x v%d, golden v%d",
					i, axc, uint64(va), l.Ver, golden[uint64(va)])
			}
		}
		if rng.Intn(8) == 0 {
			h.tile.L0Xs[axc].Drain()
			h.advance(5)
		}
	}
}

// End-to-end write visibility: everything the accelerators wrote must reach
// the host backing store after the tile flushes.
func TestNoLostWritesThroughFullHierarchy(t *testing.T) {
	h := newHarness(t, 3, false)
	rng := rand.New(rand.NewSource(13))
	golden := map[uint64]uint64{}
	lines := []mem.VAddr{0x0, 0x1000, 0x2000}
	for i := 0; i < 150; i++ {
		axc := rng.Intn(3)
		va := lines[rng.Intn(len(lines))]
		h.axcDo(t, axc, mem.Store, va)
		golden[uint64(va)]++
		if rng.Intn(5) == 0 {
			h.tile.L0Xs[axc].Drain()
		}
	}
	h.tile.Drain()
	h.run(t, 400000, func() bool { return h.tile.Outstanding() == 0 })
	h.tile.L1X.FlushAll()
	h.run(t, 400000, func() bool { return h.tile.Outstanding() == 0 })
	for _, va := range lines {
		pa := h.pt.Translate(1, va).LineAddr()
		if got := h.dir.Version(pa); got != golden[uint64(va)] {
			t.Errorf("line %#x: host sees v%d, golden v%d", uint64(va), got, golden[uint64(va)])
		}
	}
}

// Single-writer invariant: at no time do two L0Xs hold open write epochs on
// the same line.
func TestSingleWriterInvariant(t *testing.T) {
	h := newHarness(t, 3, false)
	rng := rand.New(rand.NewSource(17))
	lines := []mem.VAddr{0x0, 0x1000}
	pending := 0
	violation := false
	check := func() {
		now := h.eng.Now()
		for _, va := range lines {
			writers := 0
			for _, l0 := range h.tile.L0Xs {
				if l := l0.Peek(va); l != nil && l.WTime > now && l.Dirty {
					writers++
				}
			}
			if writers > 1 {
				violation = true
			}
		}
	}
	for i := 0; i < 120; i++ {
		axc := rng.Intn(3)
		va := lines[rng.Intn(len(lines))]
		kind := mem.Load
		if rng.Intn(2) == 0 {
			kind = mem.Store
		}
		pending++
		for !h.tile.L0Xs[axc].Access(kind, va, func(uint64) { pending-- }) {
			h.eng.Step()
			check()
		}
		for j := 0; j < rng.Intn(20); j++ {
			h.eng.Step()
			check()
		}
		if rng.Intn(6) == 0 {
			h.tile.L0Xs[axc].Drain()
		}
	}
	h.run(t, 500000, func() bool { check(); return pending == 0 })
	if violation {
		t.Fatal("two L0Xs held simultaneous write epochs on one line")
	}
}

func TestSynonymEvictedInTile(t *testing.T) {
	// Two virtual lines aliasing one physical line: only one may stay.
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	cfg := SmallTileConfig(1, model)

	rmap := vm.NewRMAP("axrmap", model, mt, st)
	l1x := NewL1X(eng, fab, tileAgent, cfg.L1X, aliasTranslator{}, rmap, mt, st)
	// Minimal up/down links for grants.
	sink := NewL0X(eng, 0, 1, cfg.L0X, mt, st)
	sink.ConnectL1X(interconnect.NewLink(eng, interconnect.Config{
		Name: "up", Latency: 1, Deliver: l1x.HandleTile,
	}))
	l1x.ConnectL0X(0, interconnect.NewLink(eng, interconnect.Config{
		Name: "down", Latency: 1, Deliver: sink.Handle,
	}))

	done := 0
	sink.Access(mem.Load, 0x0000, func(uint64) { done++ })
	eng.Run(100000, func() bool { return done == 1 })
	sink.Access(mem.Load, 0x100000, func(uint64) { done++ }) // same PA
	eng.Run(100000, func() bool { return done == 2 })

	if st.Get("l1x.synonym_evictions") != 1 {
		t.Fatalf("synonym_evictions = %d, want 1", st.Get("l1x.synonym_evictions"))
	}
	// Only the new alias remains.
	if l1x.Peek(0x0000, 1) != nil {
		t.Fatal("old synonym still cached")
	}
	if l1x.Peek(0x100000, 1) == nil {
		t.Fatal("new synonym not cached")
	}
}

// aliasTranslator maps every virtual address onto the low 20 bits: two
// distinct VAs 1 MiB apart become synonyms.
type aliasTranslator struct{}

func (aliasTranslator) Translate(pid mem.PID, va mem.VAddr) (mem.PAddr, uint64) {
	return mem.PAddr(uint64(va)&0xFFFFF | 0x400000), 0
}
