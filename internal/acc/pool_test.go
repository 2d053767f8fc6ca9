package acc

import (
	"testing"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

func TestTileMsgPoolReuse(t *testing.T) {
	var p TileMsgPool
	m := p.Get()
	m.Type, m.Addr = MsgGetW, 0x80
	p.Put(m)
	if m.Type != tileMsgPoison {
		t.Fatalf("released message Type = %v, want poison", m.Type)
	}
	m2 := p.Get()
	if m2 != m {
		t.Fatal("pool did not reuse the released message")
	}
	if m2.Type != 0 || m2.Addr != 0 || m2.pooled {
		t.Fatalf("reused message not zeroed: %+v", m2)
	}
}

func TestTileMsgPoolDoubleReleasePanics(t *testing.T) {
	var p TileMsgPool
	m := p.Get()
	p.Put(m)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		perr, ok := r.(*sim.ProtocolError)
		if !ok {
			t.Fatalf("panic value %T, want *sim.ProtocolError", r)
		}
		if perr.Component != "acc.pool" {
			t.Fatalf("component = %q, want acc.pool", perr.Component)
		}
	}()
	p.Put(m)
}

// TestTileSharesOnePool: a tile's L1X and every L0X hold the tile's one
// free list, and the L1X's host side holds the fabric's; an L0X built
// alone keeps a private list.
func TestTileSharesOnePool(t *testing.T) {
	h := newHarness(t, 3, true)
	if h.tile.L1X.tilePool != &h.tile.pool {
		t.Fatal("the L1X does not hold the tile's pool")
	}
	if h.tile.L1X.mesiPool != h.fab.Pool() {
		t.Fatal("the L1X's host side does not hold the fabric's pool")
	}
	for _, l0 := range h.tile.L0Xs {
		if l0.pool != &h.tile.pool {
			t.Fatalf("%s does not hold the tile's pool", l0.name)
		}
	}
	// An L0X's store and its writeback at the end of the invocation: the
	// messages the L1X and L0X 0 consume land in the tile's list.
	h.axcDo(t, 0, mem.Store, 0x1000)
	h.tile.Drain()
	h.run(t, 100000, func() bool { return h.tile.Outstanding() == 0 })
	h.eng.Run(100, nil)
	if len(h.tile.pool.free) == 0 {
		t.Fatal("nothing released into the tile's pool")
	}

	alone := NewL0X(h.eng, 0, 1, SmallTileConfig(1, energy.Default()).L0X, h.mt, stats.NewSet())
	if alone.pool == nil || alone.pool == &h.tile.pool {
		t.Fatal("a standalone L0X has no private pool")
	}
}
