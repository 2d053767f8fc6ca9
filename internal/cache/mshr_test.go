package cache

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestMSHRAllocateFresh(t *testing.T) {
	m := NewMSHR(4)
	s := m.Allocate(0x40)
	if s < 0 || m.AddrAt(s) != 0x40 {
		t.Fatalf("fresh allocate = slot %d (addr %#x)", s, m.AddrAt(s))
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if m.Slot(0x40) != s {
		t.Fatalf("Slot = %d, want %d", m.Slot(0x40), s)
	}
}

func TestMSHRSecondaryMissMerges(t *testing.T) {
	m := NewMSHR(4)
	s1 := m.Allocate(0x40)
	s2 := m.Allocate(0x40)
	if s2 != s1 {
		t.Fatalf("secondary miss got slot %d, want primary's %d", s2, s1)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after merge, want 1", m.Len())
	}
	if got := m.Free(0x40); got != s1 {
		t.Fatalf("Free returned slot %d, want %d", got, s1)
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x00)
	m.Allocate(0x40)
	if !m.Full() {
		t.Fatal("MSHR should be full")
	}
	if s := m.Allocate(0x80); s >= 0 {
		t.Fatal("allocation beyond capacity succeeded")
	}
	// Existing line still reachable when full.
	if s := m.Allocate(0x00); s < 0 {
		t.Fatal("secondary miss rejected while full")
	}
	m.Free(0x00)
	if m.Full() {
		t.Fatal("still full after Free")
	}
}

// TestMSHRSlotsWithinCapacity fills files of every size class the
// controllers use, and the 1- and 64-entry bounds: every slot handed out is
// below the capacity, distinct, and holds its own address.
func TestMSHRSlotsWithinCapacity(t *testing.T) {
	for _, n := range []int{1, 8, 16, 64} {
		m := NewMSHR(n)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			s := m.Allocate(uint64(i) * 64)
			if s < 0 || s >= n || seen[s] {
				t.Fatalf("capacity %d: allocation %d got slot %d", n, i, s)
			}
			seen[s] = true
		}
		if !m.Full() || m.Allocate(uint64(n)*64) >= 0 {
			t.Fatalf("capacity %d: not full after %d allocations", n, n)
		}
		for i := 0; i < n; i++ {
			if s := m.Slot(uint64(i) * 64); m.AddrAt(s) != uint64(i)*64 {
				t.Fatalf("capacity %d: slot %d holds %#x, want %#x", n, s, m.AddrAt(s), i*64)
			}
		}
		if got := m.Outstanding(); len(got) != n || got[n-1] != uint64(n-1)*64 {
			t.Fatalf("capacity %d: Outstanding = %v", n, got)
		}
	}
}

func TestMSHRFreeUnknown(t *testing.T) {
	m := NewMSHR(2)
	if s := m.Free(0x999); s != -1 {
		t.Fatalf("Free of unknown address returned slot %d", s)
	}
}

func TestMSHROutstandingOrder(t *testing.T) {
	m := NewMSHR(8)
	addrs := []uint64{0x80, 0x00, 0x40}
	for _, a := range addrs {
		m.Allocate(a)
	}
	out := m.Outstanding()
	for i := range addrs {
		if out[i] != addrs[i] {
			t.Fatalf("Outstanding = %v, want %v", out, addrs)
		}
	}
	m.Free(0x00)
	out = m.Outstanding()
	if len(out) != 2 || out[0] != 0x80 || out[1] != 0x40 {
		t.Fatalf("Outstanding after free = %v", out)
	}
	// Slot reuse must not disturb allocation order: the freed slot is
	// recycled but its stamp is fresh.
	m.Allocate(0xc0)
	out = m.Outstanding()
	if len(out) != 3 || out[2] != 0xc0 {
		t.Fatalf("Outstanding after reuse = %v", out)
	}
}

// Property: Len never exceeds capacity, Slot agrees with Allocate/Free
// bookkeeping, and the occupancy bitmap popcount matches Len under
// arbitrary alloc/free interleavings.
func TestMSHRInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMSHR(4)
		live := map[uint64]bool{}
		for _, op := range ops {
			addr := uint64(op%16) * 64
			if op&0x8000 != 0 {
				m.Free(addr)
				delete(live, addr)
			} else if m.Allocate(addr) >= 0 {
				live[addr] = true
			}
			if m.Len() > 4 || bits.OnesCount64(m.Occupied()) != m.Len() {
				return false
			}
			for a := range live {
				s := m.Slot(a)
				if s < 0 || m.AddrAt(s) != a {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
