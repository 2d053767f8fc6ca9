//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts
// meaningless).
package dram

import (
	"testing"

	"fusion/internal/mem"
)

// TestSubmitTickZeroAlloc: once the engine's event storage is warm, a
// burst of commands on every channel, issued and completed, allocates
// nothing — each channel's queue is a ring sized at construction.
func TestSubmitTickZeroAlloc(t *testing.T) {
	eng, d, _, _ := setup()
	done := func(uint64) {}
	burst := func() {
		for i := 0; i < 12; i++ { // three per channel
			if !d.Submit(Request{Addr: mem.PAddr(i * 64), Done: done}) {
				t.Fatal("submit refused on a draining queue")
			}
		}
		run(eng, 400) // issue all and complete them
	}
	for range 3 {
		burst()
	}
	if avg := testing.AllocsPerRun(100, burst); avg != 0 {
		t.Fatalf("a submit/tick burst allocated %.1f per run, want 0", avg)
	}
}
