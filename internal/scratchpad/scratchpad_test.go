package scratchpad

import (
	"errors"
	"strings"
	"testing"

	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

func newPad(eng *sim.Engine) (*Scratchpad, *energy.Meter, *stats.Set) {
	mt := energy.NewMeter()
	st := stats.NewSet()
	model := energy.Default()
	s := New(eng, "spad0", Config{SizeBytes: 4 << 10, AccessLat: 1,
		AccessPJ: model.ScratchSmall}, mt, st)
	return s, mt, st
}

func TestScratchpadFillAccess(t *testing.T) {
	eng := sim.NewEngine()
	s, mt, _ := newPad(eng)
	s.Fill(0x1000, 7)
	fired := false
	s.Access(mem.Load, 0x1004, func(uint64) { fired = true })
	eng.Step()
	eng.Step()
	if !fired {
		t.Fatal("load did not complete")
	}
	if v, _ := s.Version(0x1000); v != 7 {
		t.Fatalf("version = %d, want 7", v)
	}
	if mt.Get(energy.CatScratch) == 0 {
		t.Fatal("no scratchpad energy")
	}
}

func TestScratchpadStoreDirtiesAndBumps(t *testing.T) {
	eng := sim.NewEngine()
	s, _, _ := newPad(eng)
	s.Fill(0x2000, 3)
	s.Access(mem.Store, 0x2000, func(uint64) {})
	d := s.DirtyLines(nil)
	if len(d) != 1 || d[0].Addr != 0x2000 || d[0].Ver != 4 {
		t.Fatalf("dirty = %+v", d)
	}
}

func TestScratchpadWriteAllocate(t *testing.T) {
	eng := sim.NewEngine()
	s, _, _ := newPad(eng)
	s.Access(mem.Store, 0x3000, func(uint64) {}) // no prior Fill
	if v, ok := s.Version(0x3000); !ok || v != 1 {
		t.Fatalf("write-allocated version = %d/%v", v, ok)
	}
}

func TestScratchpadLoadMissPanics(t *testing.T) {
	eng := sim.NewEngine()
	s, _, _ := newPad(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("oracle violation did not panic")
		}
	}()
	s.Access(mem.Load, 0x4000, func(uint64) {})
}

func TestScratchpadClearAndDirtyOrder(t *testing.T) {
	eng := sim.NewEngine()
	s, _, _ := newPad(eng)
	for _, a := range []mem.VAddr{0x300, 0x100, 0x200} {
		s.Access(mem.Store, a, func(uint64) {})
	}
	d := s.DirtyLines(nil)
	if len(d) != 3 || d[0].Addr >= d[1].Addr || d[1].Addr >= d[2].Addr {
		t.Fatalf("dirty lines not sorted: %+v", d)
	}
	s.Clear()
	if s.Resident() != 0 {
		t.Fatal("Clear left lines")
	}
}

func it(loads, stores []mem.VAddr) trace.Iteration {
	return trace.Iteration{Loads: loads, Stores: stores, IntOps: 1}
}

func TestWindowsSingleWindowWhenFits(t *testing.T) {
	inv := &trace.Invocation{Iterations: []trace.Iteration{
		it([]mem.VAddr{0x000, 0x040}, []mem.VAddr{0x080}),
		it([]mem.VAddr{0x0c0}, nil),
	}}
	ws := Windows(inv, 64, nil)
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	w := ws[0]
	if len(w.ReadSet) != 3 || len(w.WriteSet) != 1 {
		t.Fatalf("read/write sets = %v / %v", w.ReadSet, w.WriteSet)
	}
}

func TestWindowsSplitOnCapacity(t *testing.T) {
	// Each iteration touches 2 fresh lines; capacity 4 lines -> 2 iters per window.
	var iters []trace.Iteration
	for i := 0; i < 6; i++ {
		base := mem.VAddr(i * 128)
		iters = append(iters, it([]mem.VAddr{base}, []mem.VAddr{base + 64}))
	}
	inv := &trace.Invocation{Iterations: iters}
	ws := Windows(inv, 4, nil)
	if len(ws) != 3 {
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	for _, w := range ws {
		if w.End-w.Start != 2 {
			t.Fatalf("window span = %d, want 2", w.End-w.Start)
		}
		if len(w.ReadSet) != 2 || len(w.WriteSet) != 2 {
			t.Fatalf("sets: %v / %v", w.ReadSet, w.WriteSet)
		}
	}
}

func TestWindowsStoreThenLoadStaysInReadSet(t *testing.T) {
	// A line both stored and loaded in one window must be DMA'd in: the
	// accelerator pipeline may reorder the load ahead of the store.
	inv := &trace.Invocation{Iterations: []trace.Iteration{
		it(nil, []mem.VAddr{0x000}),
		it([]mem.VAddr{0x000}, nil),
	}}
	ws := Windows(inv, 64, nil)
	if len(ws) != 1 || len(ws[0].ReadSet) != 1 {
		t.Fatalf("store-then-load line must be in the read set: %+v", ws[0])
	}
	if len(ws[0].WriteSet) != 1 {
		t.Fatal("dirty line missing from write set")
	}
}

func TestWindowsStoreOnlyLineNotInReadSet(t *testing.T) {
	inv := &trace.Invocation{Iterations: []trace.Iteration{
		it([]mem.VAddr{0x040}, []mem.VAddr{0x000}),
	}}
	ws := Windows(inv, 64, nil)
	if len(ws[0].ReadSet) != 1 || ws[0].ReadSet[0] != 0x040 {
		t.Fatalf("store-only line needlessly DMA'd in: %+v", ws[0])
	}
}

func TestWindowsOversizedIterationStillProgresses(t *testing.T) {
	var loads []mem.VAddr
	for i := 0; i < 10; i++ {
		loads = append(loads, mem.VAddr(i*64))
	}
	inv := &trace.Invocation{Iterations: []trace.Iteration{it(loads, nil), it(loads[:1], nil)}}
	ws := Windows(inv, 4, nil) // iteration footprint 10 > 4
	if len(ws) != 2 || ws[0].End != 1 {
		t.Fatalf("oversized iteration not isolated: %+v", ws)
	}
}

// DMA integration through the real directory.
func newDMAHarness(t *testing.T) (*sim.Engine, *mesi.Fabric, *mesi.Directory, *mesi.Client, *DMA, *stats.Set) {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	dir := mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	host := mesi.NewClient(fab, 1, mesi.DefaultHostL1Config(model), model, mt, st)
	dma := NewDMA(fab, 3, 8, 0, st)
	return eng, fab, dir, host, dma, st
}

// TestDMASharesFabricPool: the DMA engine draws its requests from, and
// releases the directory's responses into, the fabric's one free list.
func TestDMASharesFabricPool(t *testing.T) {
	_, fab, _, _, dma, _ := newDMAHarness(t)
	if dma.pool != fab.Pool() {
		t.Fatal("the DMA engine does not hold the fabric's pool")
	}
}

// sink records the DMA completions it receives.
type sink struct {
	n        int
	tag, ver uint64
}

func (s *sink) DMADone(tag, ver uint64) { s.n, s.tag, s.ver = s.n+1, tag, ver }

func TestDMAReadsCoherentData(t *testing.T) {
	eng, _, _, host, dma, _ := newDMAHarness(t)
	// Host dirties a line.
	done := false
	host.Access(mem.Store, 0x1000, func(uint64) { done = true })
	eng.Run(100000, func() bool { return done })
	var got sink
	dma.ReadLine(0x1000, &got, 7)
	eng.Run(100000, func() bool { return got.n == 1 })
	if got.tag != 7 || got.ver != 1 {
		t.Fatalf("DMA read (tag %d, v%d), want (tag 7, v1): the owner's modified data", got.tag, got.ver)
	}
}

func TestDMAWriteVisibleToHost(t *testing.T) {
	eng, _, dir, host, dma, _ := newDMAHarness(t)
	ack := sink{ver: 1}
	dma.WriteLine(0x2000, 9, false, &ack, 0)
	eng.Run(100000, func() bool { return ack.n == 1 })
	if ack.ver != 0 {
		t.Fatalf("write ack carried v%d, want 0", ack.ver)
	}
	if dma.Transfers() != 1 {
		t.Fatalf("Transfers = %d, want 1", dma.Transfers())
	}
	if dir.Version(0x2000) != 9 {
		t.Fatalf("LLC version = %d, want 9", dir.Version(0x2000))
	}
	done := false
	host.Access(mem.Load, 0x2000, func(uint64) { done = true })
	eng.Run(100000, func() bool { return done })
	if l := host.Peek(0x2000); l == nil || l.Ver != 9 {
		t.Fatalf("host line = %+v, want v9", l)
	}
}

func TestDMABoundedOutstanding(t *testing.T) {
	eng, _, _, _, dma, _ := newDMAHarness(t)
	const n = 40
	var got sink
	for i := 0; i < n; i++ {
		dma.ReadLine(mem.PAddr(i*64), &got, uint64(i))
	}
	if len(dma.pending) > dma.maxOutstanding {
		t.Fatalf("pending %d exceeds cap %d", len(dma.pending), dma.maxOutstanding)
	}
	eng.Run(2000000, func() bool { return got.n == n })
	if !dma.Idle() {
		t.Fatal("DMA not idle after completion")
	}
}

func TestDMAFullRoundTrip(t *testing.T) {
	// DMA in, compute in scratchpad, DMA out; versions flow end to end.
	// The scratchpad is the DMA-in sink; nobody waits on the drain.
	eng, _, dir, _, dma, _ := newDMAHarness(t)
	s, _, _ := newPad(eng)
	dir.Preload(0x3000, 5)

	dma.ReadLine(0x3000, s, 0x3000)
	eng.Run(100000, dma.Idle)
	if v, ok := s.Version(0x3000); !ok || v != 5 {
		t.Fatalf("filled version = %d (resident %v), want 5", v, ok)
	}

	stored := false
	s.Access(mem.Store, 0x3000, func(uint64) { stored = true })
	eng.Run(100, func() bool { return stored })

	for _, dl := range s.DirtyLines(nil) {
		dma.WriteLine(mem.PAddr(dl.Addr), dl.Ver, dl.Delta, nil, 0)
	}
	eng.Run(100000, dma.Idle)
	if dir.Version(0x3000) != 6 {
		t.Fatalf("final version = %d, want 6", dir.Version(0x3000))
	}
}

// TestDMAFailureArms: a response that matches no pending transfer of its
// kind, a message the engine never expects, and a second transfer to a
// line with one pending each fail as a protocol error from the engine,
// whose state names the pending and queued counts.
func TestDMAFailureArms(t *testing.T) {
	respond := func(dma *DMA, typ mesi.MsgType, pa mem.PAddr) {
		m := dma.pool.Get()
		m.Type, m.Addr, m.Src, m.Dst = typ, pa, mesi.DirID, dma.agent
		dma.Handle(m)
	}
	cases := []struct {
		name  string
		start func(dma *DMA)
		msg   string
		state string
	}{
		{"data with no pending read", func(dma *DMA) {
			dma.ReadLine(0x2000, nil, 0)
			respond(dma, mesi.MsgDMAReadResp, 0x1000)
		}, "matches no pending transfer", "1 pending, 0 queued"},
		{"write ack for a pending read", func(dma *DMA) {
			dma.ReadLine(0x1000, nil, 0)
			respond(dma, mesi.MsgDMAWriteAck, 0x1000)
		}, "matches no pending transfer", "1 pending, 0 queued"},
		{"InvAck", func(dma *DMA) {
			dma.ReadLine(0x1000, nil, 0)
			respond(dma, mesi.MsgInvAck, 0x1000)
		}, "unexpected InvAck", "1 pending, 0 queued"},
		{"second read of a pending line", func(dma *DMA) {
			dma.ReadLine(0x1000, nil, 0)
			dma.ReadLine(0x1000, nil, 0)
		}, "overlapping transfers", "1 pending, 1 queued"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, _, _, _, dma, _ := newDMAHarness(t)
			eng.Schedule(0, func(uint64) { c.start(dma) })
			_, _, err := eng.RunE(10, nil)
			var pe *sim.ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("RunE = %v, want a *sim.ProtocolError", err)
			}
			if pe.Component != "dma" || !strings.Contains(pe.Message, c.msg) ||
				!strings.Contains(pe.State, c.state) {
				t.Fatalf("error %q from %q with state %q, want %q from dma with state %q",
					pe.Message, pe.Component, pe.State, c.msg, c.state)
			}
		})
	}
}

func TestWindowsLiveStoredLineDMAdIn(t *testing.T) {
	// A store that only partially overwrites live data must fetch the line
	// first; a store to a fresh line write-allocates for free.
	inv := &trace.Invocation{Iterations: []trace.Iteration{
		it(nil, []mem.VAddr{0x000, 0x100}),
	}}
	live := map[mem.VAddr]bool{0x000: true}
	ws := Windows(inv, 64, live)
	if len(ws) != 1 {
		t.Fatalf("windows = %d", len(ws))
	}
	if len(ws[0].ReadSet) != 1 || ws[0].ReadSet[0] != 0x000 {
		t.Fatalf("read set = %v, want just the live line", ws[0].ReadSet)
	}
	if len(ws[0].WriteSet) != 2 {
		t.Fatalf("write set = %v, want both lines", ws[0].WriteSet)
	}
}
