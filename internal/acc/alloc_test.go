//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts
// meaningless).
package acc

import (
	"testing"

	"fusion/internal/mem"
	"fusion/internal/obs"
)

// TestClearForwardsZeroAlloc pins the task-boundary cost of the Dx
// forwarding table: after the table has reached steady-state capacity, a
// full mark/clear cycle must not touch the allocator. ClearForwards used
// to reallocate the map each invocation, which showed up in allocation
// profiles at every task boundary.
func TestClearForwardsZeroAlloc(t *testing.T) {
	h := newHarness(t, 2, true)
	l0 := h.tile.L0Xs[0]
	mark := func() {
		for i := 0; i < 48; i++ {
			l0.MarkForward(mem.VAddr(0x8000+i*64), 1)
		}
	}
	// One warm-up cycle sizes the table; growth is amortized construction
	// cost, not task-boundary cost.
	mark()
	l0.ClearForwards()
	if avg := testing.AllocsPerRun(100, func() {
		mark()
		l0.ClearForwards()
	}); avg != 0 {
		t.Fatalf("MarkForward/ClearForwards cycle allocated %.1f per run, want 0", avg)
	}
}

// kindCount is a no-op observer that counts events by kind.
type kindCount [256]int

func (c *kindCount) Record(e obs.Event) { c[e.Kind]++ }

// TestObservedGrantZeroAlloc re-grants one line's lapsed read lease — an
// L0X self-invalidation and miss, then an L1X lease grant — with a no-op
// observer on the tile, and requires the emission sites to allocate
// nothing.
func TestObservedGrantZeroAlloc(t *testing.T) {
	const lease = 16
	h := newHarness(t, 1, false)
	var seen kindCount
	h.tile.SetObserver(&seen)
	l0 := h.tile.L0Xs[0]
	l0.SetLeaseTime(lease)
	n, want := 0, 0
	done := func(uint64) { n++ }
	fired := func() bool { return n >= want }
	regrant := func() {
		want++
		if !l0.Access(mem.Load, 0x1000, done) {
			t.Fatal("L0X MSHR full on an idle cache")
		}
		h.run(t, 1<<20, fired)
		h.eng.Run(2*lease, nil) // the lease lapses: the next load misses again
	}
	regrant() // the cold miss fills the L1X
	grants := seen[obs.LeaseGrant]
	if avg := testing.AllocsPerRun(100, regrant); avg != 0 {
		t.Fatalf("an observed lease grant allocated %.1f per run, want 0", avg)
	}
	if got := seen[obs.LeaseGrant] - grants; got != 101 {
		t.Fatalf("observer saw %d lease grants, want 101", got)
	}
}
