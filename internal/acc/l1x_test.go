package acc

// Directed tests for the L1X's host-facing paths that a full hierarchy
// rarely reaches: a forward or a DMA invalidation that finds its line in
// the eviction buffer, and a synonym install that displaces a dirty alias.
// The L1X sits on a fabric whose directory and host agents are recorders,
// so each test hands the tile exactly the message it needs and reads back
// exactly what the tile answers.

import (
	"testing"

	"fusion/internal/energy"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/vm"
)

const (
	rigHost mesi.AgentID = 1 // a host requester
	rigDMA  mesi.AgentID = 3 // a DMA engine
)

type l1xRig struct {
	eng  *sim.Engine
	st   *stats.Set
	x    *L1X
	l0   *L0X
	rmap *vm.RMAP
	got  []mesi.Msg // every message the tile sent, in delivery order
	seen int        // got[:seen] has been consumed by next
}

func newL1XRig(t *testing.T) *l1xRig {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	r := &l1xRig{eng: eng, st: st}
	for _, id := range []mesi.AgentID{mesi.DirID, rigHost, rigDMA} {
		fab.Register(id, func(m *mesi.Msg) { r.got = append(r.got, *m) })
	}
	cfg := SmallTileConfig(1, model)
	r.rmap = vm.NewRMAP("axrmap", model, mt, st)
	r.x = NewL1X(eng, fab, tileAgent, cfg.L1X, aliasTranslator{}, r.rmap, mt, st)
	r.l0 = NewL0X(eng, 0, 1, cfg.L0X, mt, st)
	r.l0.ConnectL1X(interconnect.NewLink(eng, interconnect.Config{
		Name: "up", Latency: 1, Deliver: r.x.HandleTile,
	}))
	r.x.ConnectL0X(0, interconnect.NewLink(eng, interconnect.Config{
		Name: "down", Latency: 1, Deliver: r.l0.Handle,
	}))
	return r
}

// pa is the physical line aliasTranslator gives va.
func (r *l1xRig) pa(va mem.VAddr) mem.PAddr {
	pa, _ := aliasTranslator{}.Translate(1, va)
	return pa.LineAddr()
}

// next steps the engine until the tile has delivered a typ message to
// dst that no earlier next call consumed, and returns it; the messages
// delivered before it are consumed too.
func (r *l1xRig) next(t *testing.T, dst mesi.AgentID, typ mesi.MsgType) mesi.Msg {
	t.Helper()
	var got mesi.Msg
	found := func() bool {
		for ; r.seen < len(r.got); r.seen++ {
			if m := r.got[r.seen]; m.Dst == dst && m.Type == typ {
				got = m
				r.seen++
				return true
			}
		}
		return false
	}
	if _, done := r.eng.Run(100000, found); !done {
		t.Fatalf("tile sent no %s to agent %d: %+v", typ, dst, r.got)
	}
	return got
}

// settle steps the engine until pred holds.
func (r *l1xRig) settle(t *testing.T, what string, pred func() bool) {
	t.Helper()
	if _, done := r.eng.Run(100000, pred); !done {
		t.Fatalf("%s never happened", what)
	}
}

// data answers the tile's fetch of pa with ver in E.
func (r *l1xRig) data(pa mem.PAddr, ver uint64) {
	r.x.HandleMESI(&mesi.Msg{Type: mesi.MsgDataE, Addr: pa, Src: mesi.DirID, Dst: tileAgent, Ver: ver})
}

// dirtyEvicted leaves va's line in the L1X's eviction buffer, dirty at
// version 4: the L0X stores to a line fetched at version 3, writes it back
// at the end of its invocation, and the L1X then evicts everything.
func (r *l1xRig) dirtyEvicted(t *testing.T, va mem.VAddr) mem.PAddr {
	t.Helper()
	pa := r.pa(va)
	stored := false
	r.l0.Access(mem.Store, va, func(uint64) { stored = true })
	if g := r.next(t, mesi.DirID, mesi.MsgGetM); g.Addr != pa {
		t.Fatalf("fetch = %+v, want GetM for %#x", g, uint64(pa))
	}
	r.data(pa, 3)
	r.settle(t, "the store", func() bool { return stored })
	r.l0.Drain()
	r.settle(t, "the L0X writeback", func() bool {
		l := r.x.Peek(va, 1)
		return l != nil && l.Dirty && !l.WLock
	})
	r.x.FlushAll()
	if r.x.Outstanding() != 1 || r.x.Peek(va, 1) != nil {
		t.Fatalf("after eviction: %d outstanding, line %+v; want the line buffered only",
			r.x.Outstanding(), r.x.Peek(va, 1))
	}
	if put := r.next(t, mesi.DirID, mesi.MsgPutM); put.Ver != 4 || put.Addr != pa {
		t.Fatalf("eviction sent %+v, want PutM v4 for %#x", put, uint64(pa))
	}
	return pa
}

// TestL1XForwardServedFromEvictionBuffer: a host forward that arrives
// between the tile's PutM and the directory's PutAck is answered from the
// eviction buffer, which gives the entry up with the line.
func TestL1XForwardServedFromEvictionBuffer(t *testing.T) {
	r := newL1XRig(t)
	pa := r.dirtyEvicted(t, 0x2000)
	r.x.HandleMESI(&mesi.Msg{Type: mesi.MsgFwdGetM, Addr: pa, Src: mesi.DirID, Dst: tileAgent,
		Requester: rigHost})
	if r.x.Outstanding() != 0 {
		t.Fatalf("%d outstanding after the forward, want the buffer entry taken", r.x.Outstanding())
	}
	if d := r.next(t, rigHost, mesi.MsgDataM); d.Ver != 4 || d.Addr != pa {
		t.Fatalf("requester got %+v, want DataM v4", d)
	}
	if a := r.next(t, mesi.DirID, mesi.MsgOwnerAck); !a.Dirty || !a.Dropped || a.Ver != 4 {
		t.Fatalf("directory got %+v, want a dirty, dropped OwnerAck v4", a)
	}
	if got := r.st.Get("l1x.host_fwds"); got != 1 {
		t.Fatalf("host_fwds = %d, want 1", got)
	}
	// The stale PutAck that follows finds nothing left to release.
	r.x.HandleMESI(&mesi.Msg{Type: mesi.MsgPutAck, Addr: pa, Src: mesi.DirID, Dst: tileAgent})
	if r.x.Outstanding() != 0 || r.x.DumpState() != "" {
		t.Fatalf("tile not idle after the PutAck: %q", r.x.DumpState())
	}
}

// TestL1XInvalidationAcksFromEvictionBuffer: a DMA invalidation that
// arrives while the line awaits its PutAck acks with the buffered version
// and dirty bit, and leaves the entry for the PutAck to release.
func TestL1XInvalidationAcksFromEvictionBuffer(t *testing.T) {
	r := newL1XRig(t)
	pa := r.dirtyEvicted(t, 0x2000)
	r.x.HandleMESI(&mesi.Msg{Type: mesi.MsgInv, Addr: pa, Src: mesi.DirID, Dst: tileAgent,
		Requester: rigDMA})
	if a := r.next(t, rigDMA, mesi.MsgInvAck); !a.Dirty || a.Ver != 4 || a.Addr != pa {
		t.Fatalf("DMA engine got %+v, want a dirty InvAck v4", a)
	}
	if r.x.Outstanding() != 1 {
		t.Fatalf("%d outstanding after the invalidation, want the buffer entry kept", r.x.Outstanding())
	}
	r.x.HandleMESI(&mesi.Msg{Type: mesi.MsgPutAck, Addr: pa, Src: mesi.DirID, Dst: tileAgent})
	if r.x.Outstanding() != 0 {
		t.Fatalf("%d outstanding after the PutAck, want 0", r.x.Outstanding())
	}
}

// TestL1XSynonymInstallWritesBackDirtyAlias: two aliases of one physical
// line miss together, so both fetches are in flight before either
// installs. When the second installs, the first alias — dirty by then —
// leaves with a PutM of its data and no eviction notice: the tile still
// owns the line under its new name.
func TestL1XSynonymInstallWritesBackDirtyAlias(t *testing.T) {
	r := newL1XRig(t)
	const oldVA, newVA mem.VAddr = 0x0000, 0x100000 // aliasTranslator synonyms
	pa := r.pa(oldVA)
	if r.pa(newVA) != pa {
		t.Fatal("test aliases do not share a physical line")
	}
	stored, loaded := false, false
	r.l0.Access(mem.Store, oldVA, func(uint64) { stored = true })
	r.l0.Access(mem.Load, newVA, func(uint64) { loaded = true })
	for i := 0; i < 2; i++ {
		if g := r.next(t, mesi.DirID, mesi.MsgGetM); g.Addr != pa {
			t.Fatalf("fetch %d = %+v, want GetM for %#x", i, g, uint64(pa))
		}
	}

	r.data(pa, 3) // fills the first fetch, oldVA
	r.settle(t, "the store to the first alias", func() bool { return stored })
	r.l0.Drain()
	r.settle(t, "the first alias's writeback", func() bool {
		l := r.x.Peek(oldVA, 1)
		return l != nil && l.Dirty && !l.WLock
	})

	r.data(pa, 3) // fills the second fetch, newVA
	r.settle(t, "the load of the second alias", func() bool { return loaded })
	if put := r.next(t, mesi.DirID, mesi.MsgPutM); put.Ver != 4 || put.Addr != pa {
		t.Fatalf("alias displacement sent %+v, want PutM v4", put)
	}
	r.eng.Run(10000, nil) // deliver anything else the tile sent
	puts := 0
	for _, m := range r.got {
		switch m.Type {
		case mesi.MsgPutE:
			t.Fatalf("tile sent an eviction notice: %+v", m)
		case mesi.MsgPutM:
			puts++
		}
	}
	if puts != 1 {
		t.Fatalf("tile sent %d PutMs, want 1", puts)
	}
	if got := r.st.Get("l1x.evictions"); got != 0 {
		t.Fatalf("evictions = %d, want 0 (no eviction notice)", got)
	}
	if got := r.st.Get("l1x.synonym_evictions"); got != 1 {
		t.Fatalf("synonym_evictions = %d, want 1", got)
	}
	if r.x.Peek(oldVA, 1) != nil || r.x.Peek(newVA, 1) == nil {
		t.Fatal("the old alias is still cached or the new one is not")
	}
	if r.x.Outstanding() != 0 {
		t.Fatalf("%d outstanding, want 0: the displaced alias is not buffered", r.x.Outstanding())
	}
}

// TestL1XSynonymInstallKeepsNewAliasMapped: after the race above, the
// AX-RMAP names the new alias — displacing the old one must not remove
// the entry the install just made — so the tile's invariants hold and a
// host forward for the line is served from the new alias.
func TestL1XSynonymInstallKeepsNewAliasMapped(t *testing.T) {
	r := newL1XRig(t)
	const oldVA, newVA mem.VAddr = 0x0000, 0x100000 // aliasTranslator synonyms
	pa := r.pa(oldVA)
	stored, loaded := false, false
	r.l0.Access(mem.Store, oldVA, func(uint64) { stored = true })
	r.l0.Access(mem.Load, newVA, func(uint64) { loaded = true })
	r.next(t, mesi.DirID, mesi.MsgGetM)
	r.next(t, mesi.DirID, mesi.MsgGetM)
	r.data(pa, 3)
	r.settle(t, "the store to the first alias", func() bool { return stored })
	r.l0.Drain()
	r.settle(t, "the first alias's writeback", func() bool {
		l := r.x.Peek(oldVA, 1)
		return l != nil && l.Dirty && !l.WLock
	})
	r.data(pa, 3)
	r.settle(t, "the load of the second alias", func() bool { return loaded })
	r.next(t, mesi.DirID, mesi.MsgPutM)

	if ptr, ok := r.rmap.Lookup(pa); !ok || ptr.VAddr != newVA || ptr.PID != 1 {
		t.Fatalf("AX-RMAP entry for %#x = %+v (present %v), want the new alias %#x",
			uint64(pa), ptr, ok, uint64(newVA))
	}
	tile := &Tile{L0Xs: []*L0X{r.l0}, L1X: r.x, RMAP: r.rmap}
	if bad := tile.CheckInvariants(r.eng.Now()); len(bad) != 0 {
		t.Fatalf("invariants broken after the synonym install: %v", bad)
	}
	r.eng.Run(10000, nil) // let the new alias's read lease lapse
	r.x.HandleMESI(&mesi.Msg{Type: mesi.MsgFwdGetS, Addr: pa, Src: mesi.DirID, Dst: tileAgent,
		Requester: rigHost})
	// The new alias holds the version its own fetch brought, clean.
	if d := r.next(t, rigHost, mesi.MsgData); d.Addr != pa || d.Ver != 3 {
		t.Fatalf("requester got %+v, want Data v3 from the new alias", d)
	}
	if a := r.next(t, mesi.DirID, mesi.MsgOwnerAck); a.Addr != pa || !a.Dropped {
		t.Fatalf("directory got %+v, want a dropped OwnerAck", a)
	}
}
