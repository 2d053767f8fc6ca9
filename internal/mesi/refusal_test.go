package mesi

import (
	"math"
	"strings"
	"testing"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/mem"
)

// fillMSHRs starts one miss per MSHR of c, on lines from base on, and
// leaves them in flight.
func fillMSHRs(t *testing.T, c *Client, base mem.PAddr) {
	t.Helper()
	for i := 0; i < DefaultHostL1Config(energy.Default()).MSHRs; i++ {
		if !c.Access(mem.Load, base+mem.PAddr(i*mem.LineBytes), func(uint64) {}) {
			t.Fatalf("miss %d refused", i)
		}
	}
}

// TestChargeRefusalsMatchesRefusedAccesses: charging n refusals leaves a
// client's counters and energy bits exactly where n clean-miss accesses
// refused for a full MSHR file leave them, with hits interleaved. Neither
// moves the free count; completing the misses does.
func TestChargeRefusalsMatchesRefusedAccesses(t *testing.T) {
	const n = 37
	const hot, inFlight, cold = mem.PAddr(0x1000), mem.PAddr(0x100000), mem.PAddr(0x200000)
	run := func(charge bool) (counters string, hostPJ, totalPJ uint64) {
		h := newHarness(t, 1)
		c := h.clients[0]
		h.do(t, c, mem.Load, hot)
		fillMSHRs(t, c, inFlight)
		frees := c.Frees()
		for i := 0; i < n; i++ {
			if !charge {
				if c.Access(mem.Load, cold+mem.PAddr(i*mem.LineBytes), func(uint64) {}) {
					t.Fatalf("refusal %d accepted", i)
				}
				if c.RefusalTouched() {
					t.Fatalf("clean-miss refusal %d reported a resident line", i)
				}
			}
			if i%3 == 0 && !c.Access(mem.Load, hot, func(uint64) {}) {
				t.Fatalf("hit %d refused", i)
			}
		}
		if charge {
			c.ChargeRefusals(n)
		}
		if c.Frees() != frees {
			t.Fatalf("refusals moved the free count from %d to %d", frees, c.Frees())
		}
		h.run(t, 100_000, func() bool { return c.Outstanding() == 0 })
		if want := frees + uint32(DefaultHostL1Config(energy.Default()).MSHRs); c.Frees() != want {
			t.Fatalf("%d frees after the misses completed, want %d", c.Frees(), want)
		}
		var b strings.Builder
		h.st.Dump(&b)
		return b.String(), math.Float64bits(h.mt.Get(energy.CatHostL1)), math.Float64bits(h.mt.Total())
	}
	refused, refusedPJ, refusedTotal := run(false)
	charged, chargedPJ, chargedTotal := run(true)
	if charged != refused {
		t.Errorf("counters differ:\ncharged:\n%s\nrefused:\n%s", charged, refused)
	}
	if chargedPJ != refusedPJ || chargedTotal != refusedTotal {
		t.Errorf("energy bits differ: charged %x (total %x), refused %x (total %x)",
			chargedPJ, chargedTotal, refusedPJ, refusedTotal)
	}
	if !strings.Contains(refused, "mshr_full") {
		t.Error("no refusal counted")
	}
}

// TestRefusalTouched: a store to a Shared line refused for a full MSHR
// file reports that it touched a resident line; a clean miss does not.
func TestRefusalTouched(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.clients[0], h.clients[1]
	const shared, cold = mem.PAddr(0x1000), mem.PAddr(0x200000)
	h.do(t, b, mem.Load, shared)
	h.do(t, a, mem.Load, shared)
	if l := a.Peek(shared); l == nil || l.State != cache.Shared {
		t.Fatalf("line %#x not Shared: %+v", shared, l)
	}
	fillMSHRs(t, a, 0x100000)
	if a.Access(mem.Store, shared, func(uint64) {}) || !a.RefusalTouched() {
		t.Fatal("the upgrade was not refused as touching its resident line")
	}
	if a.Access(mem.Load, cold, func(uint64) {}) || a.RefusalTouched() {
		t.Fatal("the clean miss was not refused as untouched")
	}
}
