package acc

// Edge-case and interaction tests for the ACC protocol beyond the core
// flows in acc_test.go: PID isolation, eviction-during-epoch, host stores
// stealing tile lines, cross-AXC miss merging, and interleaved host/tile
// traffic checked against sequential semantics.

import (
	"math/rand"
	"testing"

	"fusion/internal/cache"
	"fusion/internal/mem"
	"fusion/internal/mesi"
)

func TestPIDIsolationInTile(t *testing.T) {
	// Two processes' lines at the same virtual address must not alias in
	// the PID-tagged L1X. Build a harness whose L0X PIDs differ.
	h := newHarness(t, 2, false)
	// Rewire AXC1's L0X to PID 2 (the tile normally shares one PID).
	h.tile.L0Xs[1].pid = 2

	h.axcDo(t, 0, mem.Store, 0x4000) // PID 1 writes v1
	h.tile.L0Xs[0].Drain()
	h.advance(20)
	h.axcDo(t, 1, mem.Store, 0x4000) // PID 2 writes its own copy
	h.tile.L0Xs[1].Drain()
	h.advance(20)

	l1 := h.tile.L1X.Peek(0x4000, 1)
	l2 := h.tile.L1X.Peek(0x4000, 2)
	if l1 == nil && l2 == nil {
		t.Fatal("no lines cached")
	}
	// The two processes map to different physical frames.
	pa1 := h.pt.Translate(1, 0x4000)
	pa2 := h.pt.Translate(2, 0x4000)
	if pa1.PageNumber() == pa2.PageNumber() {
		t.Fatal("PIDs share a physical frame")
	}
}

func TestDirtyEvictionDuringEpochClosesLock(t *testing.T) {
	// Fill one L0X set beyond capacity with dirty lines under live epochs:
	// the evictions must write back early and release the L1X locks so a
	// second accelerator can proceed.
	h := newHarness(t, 2, false)
	// L0X: 4KB/4-way/64B = 16 sets; same-set stride = 16*64 = 1024.
	for i := 0; i < 6; i++ {
		h.axcDo(t, 0, mem.Store, mem.VAddr(0x8000+i*1024))
	}
	// Two of the six were evicted (4 ways); their L1X lines must be
	// unlocked and readable by AXC1 without waiting a full lease.
	start := h.eng.Now()
	h.axcDo(t, 1, mem.Load, 0x8000) // oldest line, evicted first
	if d := h.eng.Now() - start; d > 120 {
		t.Fatalf("read of early-evicted line took %d cycles; its epoch should have closed at eviction", d)
	}
	l0 := h.tile.L0Xs[1].Peek(0x8000)
	if l0 == nil || l0.Ver != 1 {
		t.Fatalf("reader got %+v, want v1", l0)
	}
}

func TestHostStoreStealsTileLine(t *testing.T) {
	// The host writing a line the tile caches triggers FwdGetM -> the tile
	// relinquishes (MEI), and a subsequent tile access refetches the new
	// version.
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Store, 0x5000) // tile v1
	h.advance(700)                   // epoch lapses, WB lands in L1X
	h.hostDo(t, mem.Store, 0x5000)   // host takes M, writes v2
	if h.tile.L1X.Peek(0x5000, 1) != nil {
		t.Fatal("tile retained the line after FwdGetM")
	}
	h.axcDo(t, 0, mem.Load, 0x5000) // tile refetches: host forwarded v2
	l0 := h.tile.L0Xs[0].Peek(0x5000)
	if l0 == nil || l0.Ver != 2 {
		t.Fatalf("tile reloaded %+v, want v2", l0)
	}
}

func TestTwoL0XMissesMergeAtL1X(t *testing.T) {
	// Two accelerators missing on the same line concurrently: one host
	// fetch, two grants.
	h := newHarness(t, 2, false)
	done := 0
	h.tile.L0Xs[0].Access(mem.Load, 0x6000, func(uint64) { done++ })
	h.tile.L0Xs[1].Access(mem.Load, 0x6000, func(uint64) { done++ })
	h.run(t, 100000, func() bool { return done == 2 })
	if got := h.st.Get("dir.GetM"); got != 1 {
		t.Fatalf("host fetches = %d, want 1 (merged at the L1X MSHR)", got)
	}
	if got := h.st.Get("l1x.grants_read"); got != 2 || h.tile.L1X.LeaseGrants() != 2 {
		t.Fatalf("grants = %d, LeaseGrants() = %d, want 2", got, h.tile.L1X.LeaseGrants())
	}
}

func TestWriteThroughGolden(t *testing.T) {
	// Write-through mode must preserve data correctness end to end.
	h := newHarness(t, 2, false)
	for _, l0 := range h.tile.L0Xs {
		l0.cfg.WriteThrough = true
	}
	rng := rand.New(rand.NewSource(23))
	golden := map[uint64]uint64{}
	lines := []mem.VAddr{0x0, 0x1000}
	for i := 0; i < 80; i++ {
		axc := rng.Intn(2)
		va := lines[rng.Intn(2)]
		h.axcDo(t, axc, mem.Store, va)
		golden[uint64(va)]++
		if rng.Intn(6) == 0 {
			h.tile.L0Xs[axc].Drain()
		}
	}
	h.tile.Drain()
	h.run(t, 400000, func() bool { return h.tile.Outstanding() == 0 })
	h.advance(2000) // epochs lapse
	h.tile.L1X.FlushAll()
	h.run(t, 400000, func() bool { return h.tile.Outstanding() == 0 })
	for _, va := range lines {
		pa := h.pt.Translate(1, va).LineAddr()
		if got := h.dir.Version(pa); got != golden[uint64(va)] {
			t.Errorf("write-through: line %#x v%d, golden v%d", uint64(va), got, golden[uint64(va)])
		}
	}
}

func TestStalledWriterGetsFullLease(t *testing.T) {
	// A GetW parked behind a foreign read lease must still receive a
	// full-length epoch once granted (leases anchor at grant time).
	h := newHarness(t, 2, false)
	h.axcDo(t, 0, mem.Load, 0x7000) // read lease ~500 cycles
	var grantedAt uint64
	fired := false
	h.tile.L0Xs[1].Access(mem.Store, 0x7000, func(now uint64) {
		grantedAt = now
		fired = true
	})
	h.run(t, 10000, func() bool { return fired })
	l := h.tile.L0Xs[1].Peek(0x7000)
	if l == nil {
		t.Fatal("writer has no line")
	}
	if l.WTime <= grantedAt || l.WTime-grantedAt < 400 {
		t.Fatalf("write epoch [%d..%d] not a full lease after the stall", grantedAt, l.WTime)
	}
}

func TestInterleavedHostAndTileSequential(t *testing.T) {
	// Serialized alternation of host and accelerator accesses to the same
	// lines must behave exactly like sequential execution — the MESI/ACC
	// boundary crossing in both directions, repeatedly.
	h := newHarness(t, 2, false)
	rng := rand.New(rand.NewSource(31))
	golden := map[uint64]uint64{}
	lines := []mem.VAddr{0x0, 0x1000, 0x2000}
	for i := 0; i < 120; i++ {
		va := lines[rng.Intn(len(lines))]
		isStore := rng.Intn(2) == 0
		kind := mem.Load
		if isStore {
			kind = mem.Store
			golden[uint64(va)]++
		}
		if rng.Intn(3) == 0 {
			h.hostDo(t, kind, va)
		} else {
			axc := rng.Intn(2)
			h.axcDo(t, axc, kind, va)
			if rng.Intn(4) == 0 {
				h.tile.L0Xs[axc].Drain()
			}
		}
		// Leases must lapse often enough that host stores don't stall the
		// run away; advance occasionally.
		if rng.Intn(10) == 0 {
			h.advance(200)
		}
	}
	h.tile.Drain()
	h.run(t, 500000, func() bool { return h.tile.Outstanding() == 0 })
	h.advance(1600)
	h.tile.L1X.FlushAll()
	h.run(t, 500000, func() bool { return h.tile.Outstanding() == 0 })
	h.host.FlushAll()
	h.run(t, 500000, func() bool { return h.host.Outstanding() == 0 })
	for _, va := range lines {
		pa := h.pt.Translate(1, va).LineAddr()
		if got := h.dir.Version(pa); got != golden[uint64(va)] {
			t.Errorf("line %#x: v%d, golden v%d", uint64(va), got, golden[uint64(va)])
		}
	}
}

func TestL0XStoreMergedBehindReadMissUpgrades(t *testing.T) {
	// A store arriving while a GetL is outstanding must end with a write
	// epoch and the store applied.
	h := newHarness(t, 1, false)
	l0 := h.tile.L0Xs[0]
	loads, stores := 0, 0
	l0.Access(mem.Load, 0x9000, func(uint64) { loads++ })
	l0.Access(mem.Store, 0x9000, func(uint64) { stores++ }) // merges into the txn
	h.run(t, 100000, func() bool { return loads == 1 && stores == 1 })
	l := l0.Peek(0x9000)
	if l == nil || l.Ver != 1 || !l.Dirty {
		t.Fatalf("line = %+v, want dirty v1 after merged upgrade", l)
	}
}

func TestHostForwardToCleanTileLine(t *testing.T) {
	// A host read of a line the tile holds CLEAN (fetched, never written)
	// relinquishes without a dirty writeback.
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Load, 0xa000)
	h.advance(700) // lease lapses
	h.hostDo(t, mem.Load, 0xa000)
	pa := h.pt.Translate(1, 0xa000).LineAddr()
	if l := h.host.Peek(pa); l == nil {
		t.Fatal("host did not get the line")
	}
	state, owner, _ := h.dir.Sharers(pa)
	if state == "E" && owner == tileAgent {
		t.Fatal("tile still owns the line after relinquish")
	}
}

func TestL1XPeekRespectsState(t *testing.T) {
	h := newHarness(t, 1, false)
	h.axcDo(t, 0, mem.Load, 0xb000)
	l := h.tile.L1X.Peek(0xb000, 1)
	if l == nil || l.State != cache.Exclusive {
		t.Fatalf("L1X line = %+v, want Exclusive (MEI: always E/M)", l)
	}
}

// A tiny helper exercising the tile's drain with a foreign message type
// panics (defensive programming check).
func TestL0XForeignMessagePanics(t *testing.T) {
	h := newHarness(t, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("foreign message did not panic")
		}
	}()
	h.tile.L0Xs[0].Handle(&mesi.Msg{})
}

// Paranoid-mode sweep: run traffic and check tile invariants every few
// cycles throughout.
func TestInvariantsHoldUnderTraffic(t *testing.T) {
	h := newHarness(t, 3, true)
	h.tile.L0Xs[0].MarkForward(0x8000, 1)
	rng := rand.New(rand.NewSource(71))
	lines := []mem.VAddr{0x0, 0x1000, 0x8000, 0x9000}
	pending := 0
	steps := 0
	check := func() {
		if steps%16 == 0 {
			if bad := h.tile.CheckInvariants(h.eng.Now()); len(bad) > 0 {
				t.Fatalf("cycle %d: %v", h.eng.Now(), bad)
			}
		}
		steps++
	}
	for i := 0; i < 150; i++ {
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
		for j := rng.Intn(12); j > 0; j-- {
			h.eng.Step()
			check()
		}
		if rng.Intn(5) == 0 {
			h.tile.L0Xs[axc].Drain()
		}
	}
	h.run(t, 500000, func() bool { check(); return pending == 0 })
	if bad := h.tile.CheckInvariants(h.eng.Now()); len(bad) > 0 {
		t.Fatalf("final: %v", bad)
	}
}
