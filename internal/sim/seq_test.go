package sim

// Tests for the overflow heap's sequence counter: seq exists only to
// FIFO-order far-future events that coexist in the overflow heap, rebases
// whenever that heap drains (so it cannot creep toward wraparound over a
// long simulation), and keeps the FIFO tie-break correct even when its
// value sits near the top of the uint64 range. Wheel-resident events carry
// no sequence number: a bucket is in schedule order because events are
// appended to it.

import (
	"math"
	"testing"
)

func TestSeqRebasesWhenHeapDrains(t *testing.T) {
	e := NewEngine()
	const far = 2 * wheelSize // beyond the horizon at schedule time
	for i := 0; i < 100; i++ {
		e.ScheduleAt(far, func(uint64) {})
	}
	if got := e.sched.overflow.seq; got != 100 {
		t.Fatalf("overflow seq = %d after 100 far schedules, want 100", got)
	}
	e.Run(far+1, nil) // promotes all 100, then fires them
	if e.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", e.Pending())
	}
	e.ScheduleAt(e.Now()+far, func(uint64) {})
	if got := e.sched.overflow.seq; got != 1 {
		t.Fatalf("overflow seq = %d after drain+schedule, want rebase to 1", got)
	}
}

// TestSeqOrderingNearMax plants the counter just below 2^64 and verifies
// FIFO ordering among same-cycle far events survives promotion: the batch
// stays below the wrap (rebasing means a wrap would need 2^64 events in the
// heap at once), and the next drain rebases the counter away from the edge.
func TestSeqOrderingNearMax(t *testing.T) {
	e := NewEngine()
	const far = 2 * wheelSize
	var order []int
	// The first event occupies the heap (seq rebases to 1 here), then the
	// counter is planted just below the edge for the rest of the batch.
	e.ScheduleAt(far, func(uint64) { order = append(order, 0) })
	e.sched.overflow.seq = math.MaxUint64 - 7
	for i := 1; i < 8; i++ {
		i := i
		e.ScheduleAt(far, func(uint64) { order = append(order, i) })
	}
	if got := e.sched.overflow.seq; got != math.MaxUint64 {
		t.Fatalf("overflow seq = %d, want MaxUint64", got)
	}
	e.Run(far+1, nil)
	if len(order) != 8 {
		t.Fatalf("fired %d of 8 events", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events out of FIFO order near MaxUint64: %v", order)
		}
	}
	e.ScheduleAt(e.Now()+far, func(uint64) {})
	if got := e.sched.overflow.seq; got != 1 {
		t.Fatalf("overflow seq = %d after drain, want rebase to 1", got)
	}
}

// TestZeroDelayFIFODuringEventPhase is the heap-rewrite regression the
// original container/heap version was also subject to: events scheduled
// with zero delay while the event phase is draining must run this cycle, in
// scheduling order, interleaved after the already-queued same-cycle events.
func TestZeroDelayFIFODuringEventPhase(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(1, func(uint64) {
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(0, func(uint64) { order = append(order, 10+i) })
		}
	})
	e.Schedule(1, func(uint64) { order = append(order, 0) })
	for i := 0; i < 3; i++ {
		e.Step()
	}
	want := []int{0, 10, 11, 12, 13, 14}
	if len(order) != len(want) {
		t.Fatalf("drained %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("zero-delay drain order %v, want %v", order, want)
		}
	}
}

// TestPopZeroesSlot guards the GC-ability property: after an event runs,
// no backing array — a wheel bucket or the overflow heap — still
// references its handler. Near events fire from their buckets; far events
// pass through the overflow heap first.
func TestPopZeroesSlot(t *testing.T) {
	e := NewEngine()
	h := &nopHandler{}
	for i := 0; i < 4; i++ {
		e.Schedule(0, func(uint64) {})
		e.ScheduleCall(3, h, 0, 0)
		e.ScheduleAt(3*wheelSize+uint64(i), func(uint64) {})
		e.ScheduleCallAt(3*wheelSize, h, 0, 0)
	}
	e.Run(4*wheelSize, nil)
	if e.Pending() != 0 || h.fired != 8 {
		t.Fatalf("pending = %d, handler fired %d times; want 0 and 8", e.Pending(), h.fired)
	}
	s := e.sched
	for i, ev := range s.overflow.items[:cap(s.overflow.items)] {
		if ev.h != nil {
			t.Fatalf("overflow slot %d still references a retired handler", i)
		}
	}
	for b := range s.buckets {
		for i, ev := range s.buckets[b][:cap(s.buckets[b])] {
			if ev.h != nil {
				t.Fatalf("bucket %d slot %d still references a retired handler", b, i)
			}
		}
	}
}
