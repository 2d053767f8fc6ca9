//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts
// meaningless).
package systems

import (
	"testing"

	"fusion/internal/accel"
	"fusion/internal/mem"
	"fusion/internal/scratchpad"
	"fusion/internal/trace"
)

// TestAwaitAllocatesNothing: every phase and every scratchpad window waits
// through await, which hands out the machine's one completion callback
// instead of a fresh flag and closure per call.
func TestAwaitAllocatesNothing(t *testing.T) {
	m := newMachine()
	m.end = 1 << 40
	start := func(done func(uint64)) { m.eng.Schedule(1, done) }
	if avg := testing.AllocsPerRun(100, func() {
		if err := m.await(start); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("await allocated %.1f times per call, want 0", avg)
	}
}

// TestScratchWindowAllocatesNothing: once warm, a scratchpad window's run
// and the collection of its dirty lines allocate nothing: the window's
// invocation, the completion callback and both dirty-line buffers are kept
// across windows.
func TestScratchWindowAllocatesNothing(t *testing.T) {
	m := newMachine()
	m.end = 1 << 40
	ax := accel.New(m.eng, "axc0", accel.DefaultConfig(), m.model, m.mt, m.st)
	pad := scratchpad.New(m.eng, "spad0", scratchpad.Config{SizeBytes: 4 << 10, AccessLat: 1,
		AccessPJ: m.model.ScratchSmall}, m.mt, m.st)
	its := make([]trace.Iteration, 24)
	for i := range its {
		its[i] = trace.Iteration{Loads: []mem.VAddr{mem.VAddr(i * mem.LineBytes)},
			Stores: []mem.VAddr{mem.VAddr((32 + i) * mem.LineBytes)}, IntOps: 3}
		pad.Fill(its[i].Loads[0], 1)
	}
	inv := trace.Invocation{Function: "f", Iterations: its}
	window := func() {
		m.sub = trace.Invocation{Function: inv.Function, Iterations: inv.Iterations[4:20]}
		if err := m.await(func(done func(uint64)) { ax.Start(&m.sub, pad, done) }); err != nil {
			t.Fatal(err)
		}
		if m.dirty = pad.DirtyLines(m.dirty[:0]); len(m.dirty) != 16 {
			t.Fatalf("%d dirty lines, want 16", len(m.dirty))
		}
	}
	window()
	if avg := testing.AllocsPerRun(20, window); avg != 0 {
		t.Fatalf("a window allocated %.1f times, want 0", avg)
	}
}
