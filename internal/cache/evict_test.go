package cache

import "testing"

func TestEvictBufferPutRefreshes(t *testing.T) {
	var b EvictBuffer
	b.Put(0x40, 1, true)
	b.Put(0x40, 2, false)
	if b.Len() != 1 {
		t.Fatalf("Len = %d after two puts of one line, want 1", b.Len())
	}
	if ver, dirty, ok := b.Get(0x40); !ok || ver != 2 || dirty {
		t.Fatalf("Get = (%d, %v, %v), want the refreshed (2, false, true)", ver, dirty, ok)
	}
}

func TestEvictBufferGetKeepsTakeRemoves(t *testing.T) {
	var b EvictBuffer
	if ver, dirty, ok := b.Get(0x40); ok || ver != 0 || dirty {
		t.Fatalf("Get on an empty buffer = (%d, %v, %v)", ver, dirty, ok)
	}
	b.Put(0x40, 7, true)
	for i := 0; i < 2; i++ {
		if ver, dirty, ok := b.Get(0x40); !ok || ver != 7 || !dirty {
			t.Fatalf("Get #%d = (%d, %v, %v), want (7, true, true)", i, ver, dirty, ok)
		}
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d after Get, want 1", b.Len())
	}
	if ver, dirty, ok := b.Take(0x40); !ok || ver != 7 || !dirty {
		t.Fatalf("Take = (%d, %v, %v), want (7, true, true)", ver, dirty, ok)
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after Take, want 0", b.Len())
	}
	if _, _, ok := b.Take(0x40); ok {
		t.Fatal("second Take found the removed line")
	}
	if _, _, ok := b.Get(0x40); ok {
		t.Fatal("Get found the removed line")
	}
}

// TestEvictBufferTakeKeepsOthers removes lines from the front, middle and
// tail of the list: after every swap-delete each remaining line is still
// found with its own version.
func TestEvictBufferTakeKeepsOthers(t *testing.T) {
	for _, order := range [][]uint64{{0, 4, 2, 1, 3}, {4, 3, 2, 1, 0}, {2, 0, 4, 3, 1}} {
		var b EvictBuffer
		for i := uint64(0); i < 5; i++ {
			b.Put(i*64, 100+i, i%2 == 0)
		}
		for n, i := range order {
			addr := i * 64
			if ver, _, ok := b.Take(addr); !ok || ver != 100+i {
				t.Fatalf("order %v: Take(%#x) = (%d, %v)", order, addr, ver, ok)
			}
			if b.Len() != 4-n {
				t.Fatalf("order %v: Len = %d after %d takes, want %d", order, b.Len(), n+1, 4-n)
			}
			for _, j := range order[n+1:] {
				ver, dirty, ok := b.Get(j * 64)
				if !ok || ver != 100+j || dirty != (j%2 == 0) {
					t.Fatalf("order %v: line %#x lost after taking %#x: (%d, %v, %v)",
						order, j*64, addr, ver, dirty, ok)
				}
			}
		}
	}
}
