//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts
// meaningless).
package mesi

import (
	"testing"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// kindCount is a no-op observer that counts events by kind.
type kindCount [256]int

func (c *kindCount) Record(e obs.Event) { c[e.Kind]++ }

// TestObservedGetSZeroAlloc hands one line from a producer L1 to a
// consumer L1 — a store (GetM) and a 3-hop load (GetS, which the directory
// forwards to the owner) — and requires the directory's and clients'
// emission sites to allocate nothing: a handoff allocates exactly as much
// with a no-op observer attached as with none.
func TestObservedGetSZeroAlloc(t *testing.T) {
	var seen kindCount
	allocs := func(o obs.Observer) float64 {
		h := newHarness(t, 2)
		if o != nil {
			h.dir.SetObserver(o)
			for _, c := range h.clients {
				c.SetObserver(o)
			}
		}
		n, want := 0, 0
		done := func(uint64) { n++ }
		fired := func() bool { return n >= want }
		handoff := func() {
			for i, kind := range [2]mem.AccessKind{mem.Store, mem.Load} {
				want++
				if !h.clients[i].Access(kind, 0x4000, done) {
					t.Fatal("MSHR full on an idle cache")
				}
				h.run(t, 1<<20, fired)
			}
		}
		return testing.AllocsPerRun(100, handoff)
	}
	base := allocs(nil)
	if with := allocs(&seen); with != base {
		t.Fatalf("a handoff allocated %.1f per run with an observer, %.1f without: "+
			"emission allocates", with, base)
	}
	if seen[obs.DirRead] != 101 || seen[obs.DirForward] < 101 {
		t.Fatalf("observer saw %d GetS and %d forwards, want 101 each",
			seen[obs.DirRead], seen[obs.DirForward])
	}
}

// TestFabricSendZeroAlloc pins the steady-state cost of sending a control
// message over a fabric route and delivering it to a registered endpoint
// at zero heap allocations: once the route's in-flight queue and the
// engine's wheel have warmed up, they are reused forever.
func TestFabricSendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	fab := NewFabric(eng, energy.NewMeter(), stats.NewSet())
	delivered := 0
	fab.Register(1, func(*Msg) { delivered++ })
	fab.SetRoute(2, 1, Route{Latency: 1, PJPerByte: 6, FlitsPerCycle: 1,
		Category: energy.CatLinkHost, StatName: "hot"})
	m := &Msg{Type: MsgGetS, Src: 2, Dst: 1}
	step := func() {
		fab.Send(m)
		eng.Step()
		eng.Step()
	}
	for i := 0; i < 64; i++ { // warm the in-flight queue and the wheel
		step()
	}
	if avg := testing.AllocsPerRun(1000, step); avg != 0 {
		t.Fatalf("Fabric.Send steady state allocated %.1f per op, want 0", avg)
	}
	if delivered != 64+1001 {
		t.Fatalf("delivered %d messages, want %d", delivered, 64+1001)
	}
}
