package mesi

import (
	"testing"

	"fusion/internal/mem"
	"fusion/internal/sim"
)

func TestMsgPoolReuse(t *testing.T) {
	var p MsgPool
	m := p.Get()
	m.Type, m.Addr = MsgGetM, 0x40
	p.Put(m)
	if m.Type != msgTypePoison {
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

func TestMsgPoolDoubleReleasePanics(t *testing.T) {
	var p MsgPool
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
		if perr.Component != "mesi.pool" {
			t.Fatalf("component = %q, want mesi.pool", perr.Component)
		}
	}()
	p.Put(m)
}

// TestAgentsShareFabricPool: the directory and every client draw from and
// release into the fabric's one free list, so a message the directory
// releases is the next one any client gets.
func TestAgentsShareFabricPool(t *testing.T) {
	h := newHarness(t, 2)
	if h.dir.pool != h.fab.Pool() {
		t.Fatal("the directory does not hold the fabric's pool")
	}
	for _, c := range h.clients {
		if c.pool != h.fab.Pool() {
			t.Fatalf("%s does not hold the fabric's pool", c.name)
		}
	}
	// Record every message delivered to the directory, which releases
	// each one it handles (a request once its transaction starts).
	var got []*Msg
	handle := h.fab.endpoints[DirID]
	h.fab.endpoints[DirID] = func(m *Msg) { got = append(got, m); handle(m) }

	h.do(t, h.clients[0], mem.Load, 0x1000)
	h.eng.Run(1000, nil) // the client's Unblock reaches the directory
	released := got[len(got)-1]
	if released.Type != msgTypePoison {
		t.Fatalf("last message the directory handled is %s, want it released", released)
	}
	n := len(got)
	h.do(t, h.clients[1], mem.Store, 0x2000)
	if len(got) == n || got[n] != released {
		t.Fatal("the second client's GetM is not the message the directory released last")
	}
}
