package mesi

// Stress and race-focused tests: tiny caches force constant evictions so
// writeback/forward races (the evicting-buffer path) happen organically,
// and the golden version check proves none of them lose data.

import (
	"fmt"
	"math/rand"
	"testing"

	"fusion/internal/cache"
	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// tinyHarness builds clients with 512-byte caches: 8 lines, 2 ways.
func tinyHarness(t *testing.T, nClients int) *harness {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	dir := NewDirectory(fab, DefaultDirConfig(), d, model, mt, st)
	h := &harness{eng: eng, fab: fab, dir: dir, st: st, mt: mt}
	for i := 0; i < nClients; i++ {
		cfg := ClientConfig{
			Name:           "tiny." + string(rune('a'+i)),
			Cache:          cache.Params{SizeBytes: 512, Ways: 2, LineBytes: 64},
			MSHRs:          4,
			HitLatency:     2,
			EnergyCategory: energy.CatHostL1,
			AccessPJ:       model.HostL1Access,
		}
		h.clients = append(h.clients, NewClient(fab, AgentID(1+i), cfg, model, mt, st))
	}
	return h
}

// Constant-eviction stress: 3 tiny caches over 32 lines with concurrent
// issue. Evicting-buffer forwards, stale PutMs, and upgrade races all fire;
// the backing store must still end at the golden version of every line.
func TestEvictionForwardRaceStress(t *testing.T) {
	for _, seed := range []int64{41, 53, 97, 131, 263} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			evictionStress(t, seed)
		})
	}
}

func evictionStress(t *testing.T, seed int64) {
	h := tinyHarness(t, 3)
	rng := rand.New(rand.NewSource(seed))
	golden := map[uint64]uint64{}
	lines := make([]mem.PAddr, 32)
	for i := range lines {
		lines[i] = mem.PAddr(i * 64)
	}
	pending := 0
	for i := 0; i < 600; i++ {
		c := h.clients[rng.Intn(3)]
		addr := lines[rng.Intn(len(lines))]
		kind := mem.Load
		if rng.Intn(2) == 0 {
			kind = mem.Store
			golden[uint64(addr)]++
		}
		pending++
		for !c.Access(kind, addr, func(uint64) { pending-- }) {
			h.eng.Step()
		}
		for s := rng.Intn(5); s > 0; s-- {
			h.eng.Step()
		}
	}
	h.run(t, 5_000_000, func() bool { return pending == 0 })
	for _, c := range h.clients {
		c.FlushAll()
	}
	h.run(t, 5_000_000, func() bool {
		for _, c := range h.clients {
			if c.Outstanding() > 0 {
				return false
			}
		}
		return true
	})
	for _, addr := range lines {
		if got := h.dir.Version(addr); got != golden[uint64(addr)] {
			t.Errorf("line %#x: v%d, golden v%d", uint64(addr), got, golden[uint64(addr)])
		}
	}
	// The stress should actually have exercised evictions.
	if h.st.Get("tiny.a.writebacks") == 0 {
		t.Error("no writebacks — stress did not stress")
	}
	if bad := CheckInvariants(h.dir, h.clients); len(bad) > 0 {
		t.Errorf("invariants after flush: %v", bad)
	}
}

// A store while another client holds M, immediately followed by a read from
// a third: ownership must chain correctly through back-to-back forwards.
func TestBackToBackOwnershipTransfers(t *testing.T) {
	h := newHarness(t, 3)
	a, b, c := h.clients[0], h.clients[1], h.clients[2]
	for round := 0; round < 10; round++ {
		h.do(t, a, mem.Store, 0x100)
		h.do(t, b, mem.Store, 0x100)
		h.do(t, c, mem.Store, 0x100)
	}
	if l := c.Peek(0x100); l == nil || l.Ver != 30 {
		t.Fatalf("after 30 chained stores, owner sees %+v, want v30", l)
	}
}

// Silent S-drops leave stale sharer state at the directory; invalidations
// to now-empty caches must still be acked (no hang, no miscount).
func TestStaleSharerInvalidation(t *testing.T) {
	h := newHarness(t, 3)
	a, b, c := h.clients[0], h.clients[1], h.clients[2]
	h.do(t, a, mem.Load, 0x200)
	h.do(t, b, mem.Load, 0x200)
	h.do(t, c, mem.Load, 0x200)
	// Force b to silently drop its S copy via conflicting fills.
	for i := 1; i <= 4; i++ {
		h.do(t, b, mem.Load, mem.PAddr(0x200+i*16384))
	}
	if b.Peek(0x200) != nil {
		t.Fatal("line survived set pressure")
	}
	// a upgrades: dir still thinks b shares; b must ack for a line it no
	// longer has.
	h.do(t, a, mem.Store, 0x200)
	if l := a.Peek(0x200); l == nil || l.State != cache.Modified {
		t.Fatalf("upgrade failed: %+v", l)
	}
}

// Fabric route bandwidth: data messages on a 1-flit/cycle route serialize.
func TestFabricBandwidthSerializes(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, nil, nil)
	var arrivals []uint64
	fab.Register(1, func(*Msg) { arrivals = append(arrivals, eng.Now()) })
	fab.Register(2, func(*Msg) {})
	fab.SetRoute(2, 1, Route{Latency: 5, FlitsPerCycle: 1})
	// Two 72-byte data messages: the second is delayed 9 cycles.
	fab.Send(&Msg{Type: MsgData, Addr: 0, Src: 2, Dst: 1})
	fab.Send(&Msg{Type: MsgData, Addr: 64, Src: 2, Dst: 1})
	for i := 0; i < 40; i++ {
		eng.Step()
	}
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	if arrivals[1]-arrivals[0] != 9 {
		t.Fatalf("serialization gap = %d, want 9 flit-cycles", arrivals[1]-arrivals[0])
	}
}

// Unknown-destination messages panic (wiring bugs die loudly).
func TestFabricUnknownEndpointPanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown endpoint")
		}
	}()
	fab.Send(&Msg{Type: MsgGetS, Src: 1, Dst: 9})
}

// Double registration panics.
func TestFabricDoubleRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, nil, nil)
	fab.Register(1, func(*Msg) {})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for double register")
		}
	}()
	fab.Register(1, func(*Msg) {})
}

// Directory Preload makes data LLC-resident: a subsequent load must not
// touch DRAM.
func TestPreloadAvoidsDRAM(t *testing.T) {
	h := newHarness(t, 1)
	h.dir.Preload(0x300, 5)
	before := h.st.Get("dram.reads")
	h.do(t, h.clients[0], mem.Load, 0x300)
	if h.st.Get("dram.reads") != before {
		t.Fatal("preloaded line went to DRAM")
	}
	if l := h.clients[0].Peek(0x300); l == nil || l.Ver != 5 {
		t.Fatalf("line = %+v, want v5", l)
	}
}

// MSHR merging on the client: many loads to one missing line cost one
// directory transaction.
func TestClientMSHRMergingSingleFetch(t *testing.T) {
	h := newHarness(t, 1)
	c := h.clients[0]
	done := 0
	for i := 0; i < 10; i++ {
		if !c.Access(mem.Load, mem.PAddr(0x400+i*4), func(uint64) { done++ }) {
			t.Fatal("MSHR rejected a merged access")
		}
	}
	h.run(t, 100000, func() bool { return done == 10 })
	if got := h.st.Get("dir.GetS"); got != 1 {
		t.Fatalf("GetS = %d, want 1 (merged)", got)
	}
}

// Invariant sweeps during the eviction stress: whenever the system
// quiesces, the directory and caches must agree exactly.
func TestInvariantsDuringStress(t *testing.T) {
	h := tinyHarness(t, 3)
	rng := rand.New(rand.NewSource(53))
	lines := make([]mem.PAddr, 24)
	for i := range lines {
		lines[i] = mem.PAddr(i * 64)
	}
	pending := 0
	sweeps := 0
	for i := 0; i < 300; i++ {
		c := h.clients[rng.Intn(3)]
		addr := lines[rng.Intn(len(lines))]
		kind := mem.Load
		if rng.Intn(2) == 0 {
			kind = mem.Store
		}
		pending++
		for !c.Access(kind, addr, func(uint64) { pending-- }) {
			h.eng.Step()
		}
		for s := rng.Intn(6); s > 0; s-- {
			h.eng.Step()
		}
		if pending == 0 && h.dir.Quiesced() {
			sweeps++
			if bad := CheckInvariants(h.dir, h.clients); len(bad) > 0 {
				t.Fatalf("op %d: %v", i, bad)
			}
		}
	}
	h.run(t, 5_000_000, func() bool { return pending == 0 })
	h.run(t, 5_000_000, h.dir.Quiesced)
	if bad := CheckInvariants(h.dir, h.clients); len(bad) > 0 {
		t.Fatalf("final: %v", bad)
	}
	if sweeps == 0 {
		t.Log("note: no mid-run quiescent points (fine, final sweep ran)")
	}
}

// backPressureHarness builds a directory whose LLC holds a single line and
// whose DRAM has one channel with a one-entry queue. A command holds its
// channel for 60 cycles but returns data after 20, so a fetch completes
// while the next command still waits in the queue.
func backPressureHarness(t *testing.T, nClients int) *harness {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := NewFabric(eng, mt, st)
	d := dram.New(eng, dram.Config{Channels: 1, QueueDepth: 1, RowBytes: 2048,
		RowHitLat: 20, RowMissLat: 20, BurstCycles: 60}, model, mt, st)
	cfg := DefaultDirConfig()
	cfg.LLC = cache.Params{SizeBytes: 64, Ways: 1, LineBytes: 64}
	dir := NewDirectory(fab, cfg, d, model, mt, st)
	h := &harness{eng: eng, fab: fab, dir: dir, st: st, mt: mt}
	for i := 0; i < nClients; i++ {
		cfg := DefaultHostL1Config(model)
		cfg.Name = "l1." + string(rune('a'+i))
		h.clients = append(h.clients, NewClient(fab, AgentID(1+i), cfg, model, mt, st))
	}
	return h
}

// A dirty LLC victim evicted while DRAM's queue is full must still reach
// DRAM: its write retries like a refused fetch does.
func TestDirtyLLCVictimWriteSurvivesBackPressure(t *testing.T) {
	h := backPressureHarness(t, 3)
	dma := &dmaEndpoint{gotVer: map[uint64]uint64{}}
	h.fab.Register(AgentID(9), dma.handle)
	// A DMA write leaves line 0 dirty in the LLC, the victim of the next fill.
	h.fab.Send(&Msg{Type: MsgDMAWrite, Addr: 0, Src: 9, Dst: DirID, Ver: 5})
	h.run(t, 100000, func() bool { return dma.acks == 1 })
	if h.st.Get("dram.writes") != 0 {
		t.Fatalf("dram.writes = %d before any eviction", h.st.Get("dram.writes"))
	}

	// Three same-cycle misses to lines in line 0's NUCA bank, whose memory
	// holds versions 1-3: the first fetch takes the channel, the others are
	// refused and retry, and the first fill evicts line 0 while the second
	// fetch still fills the queue.
	lines := []mem.PAddr{0x200, 0x400, 0x600}
	done := 0
	for i, a := range lines {
		h.dir.ver.Put(uint64(a), uint64(i+1))
		if !h.clients[i].Access(mem.Load, a, func(uint64) { done++ }) {
			t.Fatal("MSHR full on an idle cache")
		}
	}
	h.run(t, 100000, func() bool { return done == len(lines) })
	h.run(t, 100000, func() bool { return h.dir.dram.QueueOccupancy() == 0 })
	for i, a := range lines {
		if l := h.clients[i].Peek(a); l == nil || l.Ver != uint64(i+1) {
			t.Errorf("client %d line %#x = %+v, want v%d", i, uint64(a), l, i+1)
		}
	}
	if h.st.Get("dram.queue_full") == 0 {
		t.Error("dram.queue_full = 0: DRAM never refused a command")
	}
	if got := h.st.Get("dram.writes"); got != 1 {
		t.Errorf("dram.writes = %d, want 1 (the dirty victim)", got)
	}
	if h.dir.Version(0) != 5 {
		t.Errorf("line 0 = v%d, want v5", h.dir.Version(0))
	}
}
