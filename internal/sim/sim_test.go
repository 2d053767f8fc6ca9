package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

type countTicker struct {
	name  string
	ticks []uint64
}

func (c *countTicker) Name() string    { return c.name }
func (c *countTicker) Tick(now uint64) { c.ticks = append(c.ticks, now) }

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
}

func TestStepAdvancesClock(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if e.Now() != 5 {
		t.Fatalf("Now() = %d, want 5", e.Now())
	}
}

func TestTickersRunEveryCycleInOrder(t *testing.T) {
	e := NewEngine()
	a := &countTicker{name: "a"}
	b := &countTicker{name: "b"}
	var order []string
	e.Register(tickFunc(func(uint64) { order = append(order, "a") }))
	e.Register(tickFunc(func(uint64) { order = append(order, "b") }))
	e.Register(a)
	e.Register(b)
	e.Step()
	e.Step()
	want := []string{"a", "b", "a", "b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("tick order %v, want %v", order, want)
		}
	}
	if len(a.ticks) != 2 || a.ticks[0] != 0 || a.ticks[1] != 1 {
		t.Fatalf("ticker a saw %v, want [0 1]", a.ticks)
	}
}

type tickFunc func(uint64)

func (f tickFunc) Name() string    { return "tickFunc" }
func (f tickFunc) Tick(now uint64) { f(now) }

// nopHandler is an EventHandler that counts its events.
type nopHandler struct{ fired int }

func (h *nopHandler) HandleEvent(now uint64, op uint8, arg uint64) { h.fired++ }

func TestScheduleDelivery(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	e.Schedule(3, func(now uint64) { fired = append(fired, now) })
	e.Schedule(1, func(now uint64) { fired = append(fired, now) })
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired at %v, want [1 3]", fired)
	}
}

func TestZeroDelayEventRunsSameCycleDuringEventPhase(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	e.Schedule(1, func(now uint64) {
		e.Schedule(0, func(n2 uint64) { fired = append(fired, n2) })
	})
	for i := 0; i < 3; i++ {
		e.Step()
	}
	if len(fired) != 1 || fired[0] != 1 {
		t.Fatalf("chained zero-delay fired at %v, want [1]", fired)
	}
}

func TestEventsBeforeTicksWithinCycle(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Register(tickFunc(func(uint64) { order = append(order, "tick") }))
	e.Schedule(0, func(uint64) { order = append(order, "event") })
	e.Step()
	if len(order) != 2 || order[0] != "event" || order[1] != "tick" {
		t.Fatalf("order = %v, want [event tick]", order)
	}
}

func TestSameCycleEventsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(2, func(uint64) { order = append(order, i) })
	}
	for i := 0; i < 3; i++ {
		e.Step()
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events out of order: %v", order)
		}
	}
}

func TestScheduleAtPanicsInPast(t *testing.T) {
	e := NewEngine()
	e.Step()
	e.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(1, func(uint64) {})
}

func TestRunPredicate(t *testing.T) {
	e := NewEngine()
	hit := false
	e.Schedule(10, func(uint64) { hit = true })
	cycles, done := e.Run(100, func() bool { return hit })
	if !done {
		t.Fatal("Run did not report done")
	}
	if cycles != 11 { // event fires during cycle 10; pred observed at start of cycle 11
		t.Fatalf("cycles = %d, want 11", cycles)
	}
}

func TestRunMaxCycles(t *testing.T) {
	e := NewEngine()
	cycles, done := e.Run(25, func() bool { return false })
	if done || cycles != 25 {
		t.Fatalf("Run = (%d,%v), want (25,false)", cycles, done)
	}
}

// TestRunMaxBudgetPastCycleZero: a budget that reaches past the last
// representable cycle saturates there instead of wrapping to a limit
// behind the clock.
func TestRunMaxBudgetPastCycleZero(t *testing.T) {
	e := NewEngine()
	e.Step()
	hit := false
	e.Schedule(10, func(uint64) { hit = true })
	cycles, done := e.Run(math.MaxUint64, func() bool { return hit })
	if !done || cycles != 11 {
		t.Fatalf("Run(MaxUint64) from cycle 1 = (%d,%v), want (11,true)", cycles, done)
	}
}

func TestPending(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func(uint64) {})
	e.Schedule(2, func(uint64) {})
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.Step()
	e.Step()
	e.Step()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after drain, want 0", e.Pending())
	}
}

// Property: regardless of the (possibly duplicated, unsorted) set of delays
// scheduled up front, events fire in nondecreasing time order and each at its
// requested cycle.
func TestEventOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		count := int(n%50) + 1
		delays := make([]uint64, count)
		var fired []uint64
		for i := range delays {
			delays[i] = uint64(rng.Intn(200))
			d := delays[i]
			e.Schedule(d, func(now uint64) {
				if now != d {
					t.Errorf("event scheduled for %d fired at %d", d, now)
				}
				fired = append(fired, now)
			})
		}
		for i := 0; i < 201; i++ {
			e.Step()
		}
		if len(fired) != count {
			return false
		}
		sorted := append([]uint64(nil), fired...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := range fired {
			if fired[i] != sorted[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	e.Register(tickFunc(func(uint64) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

func BenchmarkScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(1, func(uint64) {})
		e.Step()
	}
}
