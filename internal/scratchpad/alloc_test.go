//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts
// meaningless).
package scratchpad

import (
	"testing"

	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// TestDirtyLinesAllocatesNothing: a window's dirty lines, collected into a
// buffer the previous window warmed, allocate nothing: the scratchpad sorts
// in a buffer it keeps. They used to cost the address slice, sort.Slice's
// swapper and the result slice per window.
func TestDirtyLinesAllocatesNothing(t *testing.T) {
	s := New(sim.NewEngine(), "spad0", Config{SizeBytes: 4 << 10, AccessLat: 1}, nil, stats.NewSet())
	var out []DirtyLine
	window := func() {
		for i := 0; i < 48; i++ {
			va := mem.VAddr((97 * i % 64) * mem.LineBytes) // out of address order
			if i%3 == 0 {
				s.Fill(va, 1)
			}
			s.AccessTimed(mem.Store, va, nil) // schedules nothing
		}
		out = s.DirtyLines(out[:0])
		s.Clear()
	}
	window()
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Fatalf("a window's DirtyLines allocated %.1f times, want 0", avg)
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Addr >= out[i].Addr {
			t.Fatalf("dirty lines out of order: %#x before %#x", out[i-1].Addr, out[i].Addr)
		}
	}
}
