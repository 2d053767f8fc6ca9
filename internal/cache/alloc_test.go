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
	// Fill every way of the first group's sets, so every way chunk of the
	// group is allocated; refills then replace LRU lines in place.
	const stride = 4096 * 64
	addr := uint64(0)
	next := func() {
		addr = (addr + 64) % (chunkSets * 64 * 17)
		set, tag := addr/64%chunkSets, addr/64/chunkSets
		a.Fill(a.Victim(tag*stride+set*64), tag*stride+set*64, 0)
	}
	for range chunkSets * 16 {
		next()
	}
	if n := a.allocatedChunks(); n != 16 {
		t.Fatalf("%d chunks after filling every way of 64 sets, want 16", n)
	}
	if avg := testing.AllocsPerRun(1000, next); avg != 0 {
		t.Fatalf("fills within allocated chunks allocated %.1f per op, want 0", avg)
	}
}

// pinSet is a controller-like pin test: a method value is what the
// controllers pass to VictimUnpinned.
type pinSet struct{ addrs [4]uint64 }

func (p *pinSet) pinned(l *Line) bool {
	for _, a := range p.addrs {
		if l.Addr == a {
			return true
		}
	}
	return false
}

func TestVictimUnpinnedZeroAlloc(t *testing.T) {
	a := NewArray(Params{SizeBytes: 512, Ways: 4, LineBytes: 64}) // 2 sets
	for i := uint64(0); i < 4; i++ {
		a.Fill(a.Victim(i*128), i*128, 0)
	}
	p := &pinSet{addrs: [4]uint64{0, 128, 256, 1}} // every way but 384's
	if avg := testing.AllocsPerRun(1000, func() {
		if a.VictimUnpinned(0, p.pinned) == nil {
			t.Fatal("no victim with an unpinned way")
		}
	}); avg != 0 {
		t.Fatalf("VictimUnpinned allocated %.1f per op, want 0", avg)
	}
}
