//go:build !race

// Allocation-discipline tests. They are excluded under the race detector:
// the race runtime instruments allocations and makes AllocsPerRun counts
// meaningless.
package cache

import "testing"

func TestLookupMissZeroAlloc(t *testing.T) {
	a := llc()
	addr := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		addr += 64
		a.Lookup(addr)
		a.LookupPID(addr, 1)
		a.Peek(addr)
	}); avg != 0 {
		t.Fatalf("missing lookups allocated %.1f per op, want 0", avg)
	}
	if n := a.allocatedChunks(); n != 0 {
		t.Fatalf("%d chunks allocated by lookups, want 0", n)
	}
}

func TestFillInAllocatedChunkZeroAlloc(t *testing.T) {
	a := llc()
	a.Fill(a.Victim(0), 0, 0)
	addr := uint64(0)
	if avg := testing.AllocsPerRun(1000, func() {
		addr = (addr + 64) % (chunkSets * 64)
		a.Fill(a.Victim(addr), addr, 0)
	}); avg != 0 {
		t.Fatalf("fills within an allocated chunk allocated %.1f per op, want 0", avg)
	}
}
