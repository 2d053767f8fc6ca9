//go:build !race

// Allocation-discipline tests, excluded under the race detector (the race
// runtime instruments allocations and makes AllocsPerRun counts meaningless).
package sim

import (
	"math"
	"testing"
)

// TestScheduleCallZeroAlloc covers both dispatch shapes: ScheduleCall's
// handler and Schedule's closure, which the engine wraps without
// allocating because a func value is pointer-shaped.
func TestScheduleCallZeroAlloc(t *testing.T) {
	eng := NewEngine()
	h := &nopHandler{}
	closures := 0
	fn := func(uint64) { closures++ }

	// Warm every bucket's backing array so steady-state runs never grow one.
	for i := 0; i < wheelSize; i++ {
		eng.ScheduleCall(1, h, 0, uint64(i))
		eng.Schedule(1, fn)
		eng.Step()
	}
	eng.Step()

	if avg := testing.AllocsPerRun(1000, func() {
		eng.ScheduleCall(1, h, 0, 7)
		eng.Schedule(1, fn)
		eng.Step()
		eng.Step()
	}); avg != 0 {
		t.Fatalf("ScheduleCall+Schedule steady state allocated %.1f per op, want 0", avg)
	}
	if h.fired == 0 || closures != h.fired {
		t.Fatalf("handler fired %d times, closure %d; want equal and nonzero", h.fired, closures)
	}
}

// TestSleepWakeZeroAlloc: moving tickers in and out of the awake set, in
// every word of it, with and without wake cycles, waking them at those
// cycles and stepping over the sleeping ones allocate nothing.
func TestSleepWakeZeroAlloc(t *testing.T) {
	eng := NewEngine()
	const n = 130
	for i := 0; i < n; i++ {
		eng.Sleep(eng.Register(tickFunc(func(uint64) {})), math.MaxUint64)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		for _, i := range []int{0, 63, 64, n - 1} {
			eng.Wake(i)
			eng.Sleep(i, eng.Now()+uint64(i))
			eng.Wake(i)
			eng.Sleep(i, math.MaxUint64)
		}
		eng.Sleep(64, eng.Now()+1)
		eng.Wake(n - 1)
		eng.Step()
		eng.Sleep(n-1, math.MaxUint64)
		eng.Step()
		eng.Sleep(64, math.MaxUint64)
	}); avg != 0 {
		t.Fatalf("Sleep+Wake+Step allocated %.1f per op, want 0", avg)
	}
}
