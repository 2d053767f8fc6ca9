package vm

import (
	"testing"
	"testing/quick"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/stats"
)

func TestPageTableStableTranslation(t *testing.T) {
	pt := NewPageTable()
	a := pt.Translate(1, 0x1234)
	b := pt.Translate(1, 0x1234)
	if a != b {
		t.Fatalf("translation not stable: %v vs %v", a, b)
	}
}

func TestPageTableOffsetPreserved(t *testing.T) {
	pt := NewPageTable()
	pa := pt.Translate(1, 0x5678)
	if uint64(pa)&(mem.PageBytes-1) != 0x678 {
		t.Fatalf("page offset not preserved: %v", pa)
	}
}

func TestPageTableDistinctPIDsDistinctFrames(t *testing.T) {
	pt := NewPageTable()
	a := pt.Translate(1, 0x1000)
	b := pt.Translate(2, 0x1000)
	if a.PageNumber() == b.PageNumber() {
		t.Fatal("two PIDs share a frame for the same VA")
	}
	if pt.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", pt.Pages())
	}
}

func TestPageTableReverse(t *testing.T) {
	pt := NewPageTable()
	pa := pt.Translate(3, 0xabcd)
	pid, va, ok := pt.Reverse(pa)
	if !ok || pid != 3 || va != 0xabcd {
		t.Fatalf("Reverse = (%d,%v,%v)", pid, va, ok)
	}
	if _, _, ok := pt.Reverse(mem.PAddr(0xffff0000)); ok {
		t.Fatal("Reverse of unmapped frame succeeded")
	}
}

func TestFrameZeroReserved(t *testing.T) {
	pt := NewPageTable()
	pa := pt.Translate(0, 0)
	if pa.PageNumber() == 0 {
		t.Fatal("frame 0 handed out")
	}
}

func newTLB(entries int) (*TLB, *stats.Set, *energy.Meter) {
	st := stats.NewSet()
	mt := energy.NewMeter()
	pt := NewPageTable()
	return NewTLB("axtlb", entries, 50, pt, energy.Default(), mt, st), st, mt
}

func TestTLBHitAfterMiss(t *testing.T) {
	tlb, st, mt := newTLB(4)
	_, lat := tlb.Translate(1, 0x1000)
	if lat != 50 {
		t.Fatalf("first access latency = %d, want walk 50", lat)
	}
	pa, lat := tlb.Translate(1, 0x1010)
	if lat != 0 {
		t.Fatalf("same-page access latency = %d, want 0 (hit)", lat)
	}
	if uint64(pa)&(mem.PageBytes-1) != 0x10 {
		t.Fatalf("offset wrong: %v", pa)
	}
	if tlb.Lookups() != 2 || st.Get("axtlb.lookups") != 2 || st.Get("axtlb.hits") != 1 || st.Get("axtlb.misses") != 1 {
		t.Fatalf("stats: lookups=%d hits=%d misses=%d",
			st.Get("axtlb.lookups"), st.Get("axtlb.hits"), st.Get("axtlb.misses"))
	}
	if mt.Get(energy.CatVM) != 2*energy.Default().TLBLookup {
		t.Fatalf("vm energy = %v", mt.Get(energy.CatVM))
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb, _, _ := newTLB(2)
	tlb.Translate(1, 0x0000) // miss, fill
	tlb.Translate(1, 0x1000) // miss, fill
	tlb.Translate(1, 0x0000) // hit, refresh page 0
	tlb.Translate(1, 0x2000) // miss: evicts page 1 (LRU)
	if _, lat := tlb.Translate(1, 0x0000); lat != 0 {
		t.Fatal("page 0 should still be cached")
	}
	if _, lat := tlb.Translate(1, 0x1000); lat == 0 {
		t.Fatal("page 1 should have been evicted")
	}
}

func TestTLBPIDSeparation(t *testing.T) {
	tlb, _, _ := newTLB(8)
	a, _ := tlb.Translate(1, 0x3000)
	b, _ := tlb.Translate(2, 0x3000)
	if a == b {
		t.Fatal("PID ignored in TLB translation")
	}
}

func TestTLBConsistentWithPageTable(t *testing.T) {
	pt := NewPageTable()
	tlb := NewTLB("x", 2, 10, pt, energy.Default(), nil, nil)
	direct := pt.Translate(5, 0x7777)
	cached, _ := tlb.Translate(5, 0x7777)
	if direct != cached {
		t.Fatalf("TLB %v != page table %v", cached, direct)
	}
}

func TestRMAPInsertLookupRemove(t *testing.T) {
	st := stats.NewSet()
	mt := energy.NewMeter()
	r := NewRMAP("axrmap", energy.Default(), mt, st)
	ptr := Pointer{Set: 3, Way: 1, VAddr: 0x1040, PID: 1}
	r.Insert(0x9040, ptr)
	got, ok := r.Lookup(0x9040)
	if !ok || got != ptr {
		t.Fatalf("Lookup = (%+v,%v)", got, ok)
	}
	// Sub-line physical address matches the same line.
	if _, ok := r.Lookup(0x9077); !ok {
		t.Fatal("sub-line lookup missed")
	}
	if st.Get("axrmap.lookups") != 2 || r.Lookups() != 2 {
		t.Fatalf("lookups = %d, Lookups() = %d", st.Get("axrmap.lookups"), r.Lookups())
	}
	r.Remove(0x9040)
	if _, ok := r.Lookup(0x9040); ok {
		t.Fatal("lookup after Remove succeeded")
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestRMAPSynonymDetection(t *testing.T) {
	r := NewRMAP("axrmap", energy.Default(), nil, stats.NewSet())
	first := Pointer{Set: 0, Way: 0, VAddr: 0x1000, PID: 1}
	r.Insert(0x8000, first)
	// A different virtual address mapping the same physical line: synonym.
	prev, dup := r.Insert(0x8000, Pointer{Set: 1, Way: 2, VAddr: 0x5000, PID: 1})
	if !dup || prev != first {
		t.Fatalf("synonym not detected: prev=%+v dup=%v", prev, dup)
	}
	// Re-inserting the same virtual line is not a synonym.
	if _, dup := r.Insert(0x8000, Pointer{Set: 1, Way: 2, VAddr: 0x5000, PID: 1}); dup {
		t.Fatal("same-VA reinsert flagged as synonym")
	}
}

// Property: Translate then Reverse round-trips for arbitrary (pid, va).
func TestTranslateReverseRoundTrip(t *testing.T) {
	pt := NewPageTable()
	f := func(pid uint16, va uint64) bool {
		va &= 1<<40 - 1 // keep VPNs clear of the PID bits in the key
		pa := pt.Translate(mem.PID(pid), mem.VAddr(va))
		gotPID, gotVA, ok := pt.Reverse(pa)
		return ok && gotPID == mem.PID(pid) && gotVA == mem.VAddr(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: distinct (pid, page) pairs never collide on a frame.
func TestNoFrameCollisionProperty(t *testing.T) {
	pt := NewPageTable()
	seen := map[uint64]uint64{}
	f := func(pid uint8, vpn uint16) bool {
		va := mem.VAddr(uint64(vpn) << mem.PageShift)
		pa := pt.Translate(mem.PID(pid), va)
		k := uint64(pid)<<48 | uint64(vpn)
		if prev, ok := seen[pa.PageNumber()]; ok {
			return prev == k
		}
		seen[pa.PageNumber()] = k
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
