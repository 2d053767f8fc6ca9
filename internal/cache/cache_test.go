package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"fusion/internal/mem"
)

func small() *Array {
	// 4 sets x 2 ways x 64B = 512B
	return NewArray(Params{SizeBytes: 512, Ways: 2, LineBytes: 64})
}

func TestParamsSets(t *testing.T) {
	p := Params{SizeBytes: 4096, Ways: 4, LineBytes: 64}
	if p.Sets() != 16 {
		t.Fatalf("Sets = %d, want 16", p.Sets())
	}
}

func TestNewArrayPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-power-of-two line size")
		}
	}()
	NewArray(Params{SizeBytes: 512, Ways: 2, LineBytes: 48})
}

func TestLookupMissThenFillHit(t *testing.T) {
	a := small()
	if a.Lookup(0x1000) != nil {
		t.Fatal("unexpected hit on empty cache")
	}
	v := a.Victim(0x1000)
	a.Fill(v, 0x1000, 0)
	l := a.Lookup(0x1000)
	if l == nil || l.Addr != 0x1000 || !l.Valid {
		t.Fatal("fill not visible to lookup")
	}
	// Any address within the line hits.
	if a.Lookup(0x103f) == nil {
		t.Fatal("sub-line address missed")
	}
	if a.Lookup(0x1040) != nil {
		t.Fatal("next line should miss")
	}
}

func TestPIDTagging(t *testing.T) {
	a := small()
	v := a.Victim(0x2000)
	a.Fill(v, 0x2000, mem.PID(7))
	if a.LookupPID(0x2000, 7) == nil {
		t.Fatal("PID-tagged lookup missed own line")
	}
	if a.LookupPID(0x2000, 8) != nil {
		t.Fatal("PID-tagged lookup hit another process's line")
	}
	if a.Lookup(0x2000) == nil {
		t.Fatal("untagged lookup should still match")
	}
}

func TestLRUVictimSelection(t *testing.T) {
	a := small()
	// Two lines mapping to the same set (4 sets, stride 4*64=256).
	a.Fill(a.Victim(0x0000), 0x0000, 0)
	a.Fill(a.Victim(0x0100), 0x0100, 0)
	// Touch the first so the second becomes LRU.
	a.Lookup(0x0000)
	v := a.Victim(0x0200)
	if !v.Valid || v.Addr != 0x0100 {
		t.Fatalf("victim = %+v, want line 0x100", v)
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	a := small()
	a.Fill(a.Victim(0x0000), 0x0000, 0)
	v := a.Victim(0x0100)
	if v.Valid {
		t.Fatal("victim should be the invalid way")
	}
}

func TestPeekDoesNotTouchLRU(t *testing.T) {
	a := small()
	a.Fill(a.Victim(0x0000), 0x0000, 0)
	a.Fill(a.Victim(0x0100), 0x0100, 0)
	a.Peek(0x0000) // must NOT refresh
	v := a.Victim(0x0200)
	if v.Addr != 0x0000 {
		t.Fatalf("Peek changed LRU: victim %#x, want 0x0", v.Addr)
	}
}

func TestFillResetsMetadata(t *testing.T) {
	a := small()
	v := a.Victim(0x0000)
	a.Fill(v, 0x0000, 0)
	v.Dirty = true
	v.State = Modified
	v.LTime = 99
	a.Fill(v, 0x0100, 3)
	if v.Dirty || v.State != Invalid || v.LTime != 0 || v.PID != 3 || v.Addr != 0x100 {
		t.Fatalf("Fill left stale metadata: %+v", v)
	}
}

func TestForEachAndCounts(t *testing.T) {
	a := small()
	a.Fill(a.Victim(0x0000), 0x0000, 0)
	a.Fill(a.Victim(0x1000), 0x1000, 0)
	if a.CountValid() != 2 {
		t.Fatalf("CountValid = %d, want 2", a.CountValid())
	}
	n := 0
	a.ForEach(func(l *Line) { n++ })
	if n != 8 {
		t.Fatalf("ForEach visited %d, want 8", n)
	}
	a.InvalidateAll()
	if a.CountValid() != 0 {
		t.Fatal("InvalidateAll left valid lines")
	}
}

func TestSetIndexDistribution(t *testing.T) {
	a := small()
	seen := map[int]bool{}
	for addr := uint64(0); addr < 4*64; addr += 64 {
		seen[a.SetIndex(addr)] = true
	}
	if len(seen) != 4 {
		t.Fatalf("consecutive lines hit %d sets, want 4", len(seen))
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
}

// Property: after any sequence of fills, no two valid lines in a set share
// (Addr, PID), and every valid line's address maps to its own set.
func TestNoAliasingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(Params{SizeBytes: 2048, Ways: 4, LineBytes: 64})
		for i := 0; i < 500; i++ {
			addr := uint64(rng.Intn(64)) * 64
			pid := mem.PID(rng.Intn(3))
			if a.LookupPID(addr, pid) == nil {
				a.Fill(a.Victim(addr), addr, pid)
			}
		}
		ok := true
		type key struct {
			addr uint64
			pid  mem.PID
		}
		perSet := map[int]map[key]int{}
		idx := 0
		a.ForEach(func(l *Line) {
			set := idx / 4
			idx++
			if !l.Valid {
				return
			}
			if a.SetIndex(l.Addr) != set {
				ok = false
			}
			if perSet[set] == nil {
				perSet[set] = map[key]int{}
			}
			perSet[set][key{l.Addr, l.PID}]++
			if perSet[set][key{l.Addr, l.PID}] > 1 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU never evicts the most recently touched line of a full set.
func TestLRUNeverEvictsMRUProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewArray(Params{SizeBytes: 512, Ways: 4, LineBytes: 64}) // 2 sets
		// Fill set 0 completely: addresses 0,128,256,384 map to set 0.
		for i := 0; i < 4; i++ {
			addr := uint64(i) * 128
			a.Fill(a.Victim(addr), addr, 0)
		}
		for i := 0; i < 100; i++ {
			touch := uint64(rng.Intn(4)) * 128
			a.Lookup(touch)
			v := a.Victim(uint64(rng.Intn(4)) * 128)
			if v.Addr == touch {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// oldVictimLoop is the victim walk each controller carried before
// VictimUnpinned: the reference it must match line for line.
func oldVictimLoop(a *Array, addr uint64, pinned func(*Line) bool) *Line {
	for i := 0; i < a.Params().Ways; i++ {
		v := a.Victim(addr)
		if !v.Valid {
			return v
		}
		if !pinned(v) {
			return v
		}
		a.Touch(v)
	}
	return nil
}

func TestVictimUnpinnedPrefersInvalidWay(t *testing.T) {
	a := NewArray(Params{SizeBytes: 512, Ways: 4, LineBytes: 64}) // 2 sets
	a.Fill(a.Victim(0), 0, 0)
	a.Fill(a.Victim(128), 128, 0)
	calls := 0
	v := a.VictimUnpinned(256, func(*Line) bool { calls++; return true })
	if v == nil || v.Valid {
		t.Fatalf("VictimUnpinned = %+v, want an invalid way", v)
	}
	if calls != 0 {
		t.Fatalf("pin test called %d times with an invalid way free, want 0", calls)
	}
}

func TestVictimUnpinnedAllPinned(t *testing.T) {
	a := NewArray(Params{SizeBytes: 512, Ways: 4, LineBytes: 64})
	for i := uint64(0); i < 4; i++ {
		a.Fill(a.Victim(i*128), i*128, 0)
	}
	calls := 0
	if v := a.VictimUnpinned(0, func(*Line) bool { calls++; return true }); v != nil {
		t.Fatalf("VictimUnpinned = %+v with every way pinned, want nil", v)
	}
	if calls != 4 {
		t.Fatalf("pin test called %d times, want once per way (4)", calls)
	}
}

// TestVictimUnpinnedMatchesLoop drives two identical arrays through the
// same fills and lookups, picking victims with VictimUnpinned in one and
// the controllers' old loop in the other under random pin patterns: both
// must pick the same way and leave the same LRU stamps.
func TestVictimUnpinnedMatchesLoop(t *testing.T) {
	const ways, sets = 4, 4
	p := Params{SizeBytes: ways * sets * 64, Ways: ways, LineBytes: 64}
	rng := rand.New(rand.NewSource(1))
	a, ref := NewArray(p), NewArray(p)
	for step := 0; step < 2000; step++ {
		addr := uint64(rng.Intn(4*ways*sets)) * 64
		if rng.Intn(3) == 0 {
			a.Lookup(addr)
			ref.Lookup(addr)
			continue
		}
		if a.Peek(addr) != nil {
			continue
		}
		pins := rng.Uint64()
		pinned := func(l *Line) bool { return pins>>(l.Addr/64%64)&1 != 0 }
		v, rv := a.VictimUnpinned(addr, pinned), oldVictimLoop(ref, addr, pinned)
		if (v == nil) != (rv == nil) {
			t.Fatalf("step %d: VictimUnpinned = %v, loop = %v", step, v, rv)
		}
		if v != nil {
			if a.SlotOf(addr, v) != ref.SlotOf(addr, rv) {
				t.Fatalf("step %d: VictimUnpinned picked slot %d, loop slot %d",
					step, a.SlotOf(addr, v), ref.SlotOf(addr, rv))
			}
			a.Fill(v, addr, 0)
			ref.Fill(rv, addr, 0)
		}
		for i := 0; i < a.NumLines(); i++ {
			if *a.LineAt(i) != *ref.LineAt(i) {
				t.Fatalf("step %d: line %d is %+v, loop left %+v", step, i, *a.LineAt(i), *ref.LineAt(i))
			}
		}
		if a.stamp != ref.stamp {
			t.Fatalf("step %d: stamp %d, loop %d", step, a.stamp, ref.stamp)
		}
	}
}

func BenchmarkLookupHit(b *testing.B) {
	a := NewArray(Params{SizeBytes: 65536, Ways: 8, LineBytes: 64})
	a.Fill(a.Victim(0x4000), 0x4000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Lookup(0x4000)
	}
}

// llc builds an array with the host LLC's geometry: 4 MB, 16-way, 64-byte
// lines, so 4,096 sets in 64 chunks.
func llc() *Array {
	return NewArray(Params{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64})
}

// allocatedChunks counts the chunks holding line storage.
func (a *Array) allocatedChunks() int {
	n := 0
	for _, c := range a.chunks {
		if c != nil {
			n++
		}
	}
	return n
}

func TestLineFitsOneHostCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Line{}); n != 64 {
		t.Fatalf("Line is %d bytes, want 64", n)
	}
}

func TestLinesAllocatedOnFirstFill(t *testing.T) {
	a := llc()
	if a.NumLines() != 4096*16 {
		t.Fatalf("NumLines = %d, want %d", a.NumLines(), 4096*16)
	}
	if a.Lookup(0x1000) != nil || a.LookupPID(0x1000, 1) != nil || a.Peek(0x1000) != nil {
		t.Fatal("hit in an empty array")
	}
	if n := a.allocatedChunks(); n != 0 {
		t.Fatalf("%d chunks allocated by lookups, want 0", n)
	}
	// One line in each of the first group's 64 sets allocates one chunk:
	// way 0 of sets 0..63, 64 lines of 64 bytes.
	const stride = 4096 * 64 // the next line of the same set
	var filled []uint64
	for set := uint64(0); set < chunkSets; set++ {
		a.Fill(a.Victim(set*64), set*64, 0)
		filled = append(filled, set*64)
	}
	if n, c := a.allocatedChunks(), a.chunks[0]; n != 1 || len(c) != chunkSets ||
		uintptr(len(c))*unsafe.Sizeof(Line{}) != 4096 {
		t.Fatalf("%d chunks allocated (way 0 has %d lines), want one 4 KB chunk", n, len(c))
	}
	// Filling every way of those sets allocates one chunk per way.
	for way := uint64(1); way < 16; way++ {
		for set := uint64(0); set < chunkSets; set++ {
			addr := way*stride + set*64
			a.Fill(a.Victim(addr), addr, 0)
			filled = append(filled, addr)
		}
	}
	if n := a.allocatedChunks(); n != 16 {
		t.Fatalf("%d chunks allocated with every way of 64 sets filled, want 16", n)
	}
	// Lookups, hits or misses, allocate nothing.
	for _, addr := range []uint64{0, 15*stride + 63*64, 16 * stride, 64 * 64, 4095 * 64} {
		a.Lookup(addr)
		a.LookupPID(addr, 1)
		a.Peek(addr)
	}
	if n := a.allocatedChunks(); n != 16 {
		t.Fatalf("lookups left %d chunks allocated, want 16", n)
	}
	// A line in the last set lands in way 0 of the last group.
	last := uint64(4095 * 64)
	a.Fill(a.Victim(last), last, 0)
	filled = append(filled, last)
	if n := a.allocatedChunks(); n != 17 || a.chunks[len(a.chunks)-16] == nil {
		t.Fatalf("%d chunks allocated after filling set 4095, want 17 with the last group's way 0", n)
	}

	var seen []uint64
	visited := 0
	a.ForEach(func(l *Line) {
		visited++
		if l.Valid {
			seen = append(seen, l.Addr)
		}
	})
	if visited != 17*chunkSets {
		t.Fatalf("ForEach visited %d lines, want the %d of 17 chunks", visited, 17*chunkSets)
	}
	if len(seen) != len(filled) || a.CountValid() != len(filled) {
		t.Fatalf("ForEach saw %d valid lines and CountValid %d, want %d",
			len(seen), a.CountValid(), len(filled))
	}
	// (set, way) order: set 0's sixteen ways first, then set 1's.
	for i := range 32 {
		if want := uint64(i%16)*stride + uint64(i/16)*64; seen[i] != want {
			t.Fatalf("ForEach's valid line %d is %#x, want %#x", i, seen[i], want)
		}
	}

	// Slots stay dense (set*ways + way) across chunks.
	for _, addr := range []uint64{3*stride + 5*64, 15*stride + 63*64, last} {
		l := a.Peek(addr)
		slot := a.SlotOf(addr, l)
		if slot/16 != a.SetIndex(addr) || a.LineAt(slot) != l {
			t.Fatalf("line %#x: slot %d does not round-trip (set %d)", addr, slot, a.SetIndex(addr))
		}
	}

	a.InvalidateAll()
	if a.CountValid() != 0 || a.Peek(last) != nil {
		t.Fatal("InvalidateAll left valid lines")
	}
	if n := a.allocatedChunks(); n != 17 {
		t.Fatalf("InvalidateAll left %d chunks, want the 17 allocated", n)
	}
}

// TestLineAtOutOfOrderChunk reads a slot whose way has never been filled
// in its set group: LineAt allocates that way's chunk ahead of the lower
// ways, holding only invalid lines, and lookups and fills behave as if it
// were not there.
func TestLineAtOutOfOrderChunk(t *testing.T) {
	a := llc()
	const set, way = 100, 5
	if l := a.LineAt(set*16 + way); l.Valid {
		t.Fatalf("LineAt of an unfilled slot = %+v, want an invalid line", *l)
	}
	if n := a.allocatedChunks(); n != 1 {
		t.Fatalf("%d chunks allocated by LineAt, want 1", n)
	}
	addr := uint64(set * 64)
	v := a.Victim(addr)
	if slot := a.SlotOf(addr, v); slot != set*16 {
		t.Fatalf("Victim picked slot %d, want way 0 of set %d (slot %d)", slot, set, set*16)
	}
	a.Fill(v, addr, 0)
	if a.Lookup(addr) != v || a.Peek(addr+4096*64) != nil {
		t.Fatal("lookup past an out-of-order chunk went wrong")
	}
}
