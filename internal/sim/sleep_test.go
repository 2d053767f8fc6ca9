package sim

// Unit tests for the awake set and wake cycles: a sleeping ticker costs the
// engine nothing per cycle, and a wake, by a component or by its wake
// cycle, makes it tick at the cycle per-cycle stepping of every ticker
// would first give its Tick something to do.

import (
	"math"
	"slices"
	"testing"
)

// sleepProbe is a ticker that records the cycles it ticks at and runs
// onTick, if set, from its Tick. With naps set it then sleeps until wake
// (math.MaxUint64: until woken); otherwise it stays awake.
type sleepProbe struct {
	e      *Engine
	i      int // its ticker index
	naps   bool
	wake   uint64
	ticks  []uint64
	onTick func(now uint64)
}

// newSleepProbe registers a probe on e that naps after every Tick, asleep
// from the start until woken.
func newSleepProbe(e *Engine) *sleepProbe {
	p := &sleepProbe{e: e, naps: true, wake: math.MaxUint64}
	p.i = e.Register(p)
	e.Sleep(p.i, math.MaxUint64)
	return p
}

func (p *sleepProbe) Name() string { return "sleepprobe" }

func (p *sleepProbe) Tick(now uint64) {
	p.ticks = append(p.ticks, now)
	if p.onTick != nil {
		p.onTick(now)
	}
	if p.naps {
		p.e.Sleep(p.i, p.wake)
	}
}

// stepTo steps e until its clock reads end.
func stepTo(e *Engine, end uint64) {
	for e.Now() < end {
		e.Step()
	}
}

// TestSleepingTickerNeitherTickedNorPolled: a fast-forward over a sleeper
// neither ticks it nor steps a cycle for it: the jump to the next event is
// one assignment.
func TestSleepingTickerNeitherTickedNorPolled(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	stepTo(e, 10)
	fired := false
	e.Schedule(1000, func(uint64) { fired = true })
	cycles, done := e.Run(2000, func() bool { return fired })
	if !done || cycles != 1001 {
		t.Fatalf("Run = (%d,%v), want (1001,true)", cycles, done)
	}
	if len(p.ticks) != 0 || e.Steps() != 11 {
		t.Fatalf("sleeping ticker ticked at %v and the engine stepped %d cycles, want none and 11 (10 by hand, the event's)",
			p.ticks, e.Steps())
	}
}

// TestSleepingOpaqueTickerDoesNotPinStepping: a ticker that never sleeps by
// itself pins the engine to per-cycle stepping only while it is awake.
func TestSleepingOpaqueTickerDoesNotPinStepping(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	n := 0
	opaque := e.Register(tickFunc(func(uint64) { n++ }))
	e.Sleep(opaque, math.MaxUint64)
	e.Wake(p.i)
	fired := false
	e.Schedule(1000, func(uint64) { fired = true })
	e.Run(2000, func() bool { return fired })
	if n != 0 || !slices.Equal(p.ticks, []uint64{0}) || e.Steps() != 2 {
		t.Fatalf("opaque ticker ticked %d times, the probe at %v, %d cycles stepped; want 0, [0] and 2",
			n, p.ticks, e.Steps())
	}
	e.Wake(opaque)
	e.Run(50, nil)
	if n != 50 {
		t.Fatalf("awake opaque ticker saw %d ticks, want 50", n)
	}
}

func TestWakeFromEventTicksThatCycle(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	p.naps = false
	e.Schedule(5, func(uint64) { e.Wake(p.i) })
	stepTo(e, 8)
	if want := []uint64{5, 6, 7}; !slices.Equal(p.ticks, want) {
		t.Fatalf("woken at cycle 5, ticked at %v, want %v", p.ticks, want)
	}
	// Under Run a jump lands on the cycle of the event that wakes the
	// ticker, which ticks there and, asleep again, lets the engine jump on.
	p.naps = true
	e.Sleep(p.i, math.MaxUint64)
	e.Schedule(100, func(uint64) { e.Wake(p.i) })
	e.Run(200, nil)
	if want := []uint64{5, 6, 7, 108}; !slices.Equal(p.ticks, want) || e.Steps() != 9 {
		t.Fatalf("woken at cycle 108, ticked at %v with %d cycles stepped, want %v with 9",
			p.ticks, e.Steps(), want)
	}
}

// TestWakeOrderFollowsRegistration: the tick phase re-reads the awake set
// after every Tick, so a ticker woken by an earlier one ticks in the same
// cycle, one woken by a later one in the next, and one put to sleep by an
// earlier one before its turn not at all.
func TestWakeOrderFollowsRegistration(t *testing.T) {
	e := NewEngine()
	early, mid, late := newSleepProbe(e), newSleepProbe(e), newSleepProbe(e)
	early.naps, mid.naps, late.naps = false, false, false
	e.Wake(mid.i)
	mid.onTick = func(now uint64) {
		switch now {
		case 3:
			e.Wake(early.i)
			e.Wake(late.i)
		case 5:
			e.Sleep(late.i, math.MaxUint64)
		}
	}
	stepTo(e, 7)
	if want := []uint64{4, 5, 6}; !slices.Equal(early.ticks, want) {
		t.Errorf("woken by a later ticker at 3, ticked at %v, want %v", early.ticks, want)
	}
	if want := []uint64{3, 4}; !slices.Equal(late.ticks, want) {
		t.Errorf("woken by an earlier ticker at 3 and put to sleep at 5, ticked at %v, want %v",
			late.ticks, want)
	}
}

// TestWakeReportsTickInCycle: Wake reports whether the woken ticker still
// ticks in the current cycle, and that is when it ticks next: yes between
// cycles, in the event phase and when an earlier ticker wakes it; no when
// it wakes itself or a later ticker wakes it.
func TestWakeReportsTickInCycle(t *testing.T) {
	e := NewEngine()
	a, b, c := newSleepProbe(e), newSleepProbe(e), newSleepProbe(e)
	b.naps = false
	got := map[string]bool{}
	e.Schedule(1, func(uint64) { got["event"] = e.Wake(b.i) })
	b.onTick = func(now uint64) {
		if now == 1 {
			got["earlier"] = e.Wake(c.i)
			got["later"] = e.Wake(a.i)
			got["self"] = e.Wake(b.i)
		}
	}
	got["between"] = e.Wake(a.i)
	stepTo(e, 3)
	want := map[string]bool{"between": true, "event": true, "earlier": true, "later": false, "self": false}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("Wake %s reported %v, want %v", k, got[k], w)
		}
	}
	if !slices.Equal(a.ticks, []uint64{0, 2}) || !slices.Equal(b.ticks, []uint64{1, 2}) ||
		!slices.Equal(c.ticks, []uint64{1}) {
		t.Errorf("ticked at %v, %v and %v; want [0 2], [1 2] and [1]", a.ticks, b.ticks, c.ticks)
	}
}

// TestSleepUntilWakeCycle: a sleeper with a wake cycle ticks exactly then,
// under per-cycle stepping and under Run, whose jump lands on that cycle.
func TestSleepUntilWakeCycle(t *testing.T) {
	for _, skip := range []bool{true, false} {
		e := NewEngine()
		p := newSleepProbe(e)
		p.onTick = func(now uint64) {
			p.wake = math.MaxUint64
			if now == 500 {
				p.wake = 900
			}
		}
		e.Sleep(p.i, 500)
		if skip {
			e.Run(1000, nil)
		} else {
			stepTo(e, 1000)
		}
		if !slices.Equal(p.ticks, []uint64{500, 900}) {
			t.Errorf("skip=%v: sleeper with wake cycles 500 and 900 ticked at %v", skip, p.ticks)
		}
		if skip && e.Steps() != 2 {
			t.Errorf("Run stepped %d cycles, want 2 (the two wake cycles)", e.Steps())
		}
	}
}

// TestWakeCancelsWakeCycle: a wake before a sleeper's wake cycle cancels
// it, so the engine takes no step at the stale cycle; an earlier wake
// cycle of another sleeper still holds.
func TestWakeCancelsWakeCycle(t *testing.T) {
	e := NewEngine()
	p, q := newSleepProbe(e), newSleepProbe(e)
	e.Sleep(p.i, 500)
	e.Sleep(q.i, 700)
	e.Schedule(100, func(uint64) { e.Wake(p.i) })
	e.Run(1000, nil)
	if !slices.Equal(p.ticks, []uint64{100}) || !slices.Equal(q.ticks, []uint64{700}) {
		t.Fatalf("ticked at %v and %v, want [100] and [700]", p.ticks, q.ticks)
	}
	if e.Steps() != 2 {
		t.Fatalf("stepped %d cycles, want 2 (the event's and q's wake cycle)", e.Steps())
	}
}

// TestStepsCountsSteppedCycles: Steps counts the cycles Step executes,
// by Run or by hand, and none of those a fast-forward jumps.
func TestStepsCountsSteppedCycles(t *testing.T) {
	e := NewEngine()
	for _, at := range []uint64{10, 20, 20, 35} {
		e.ScheduleAt(at, func(uint64) {})
	}
	if e.Run(100, nil); e.Steps() != 3 {
		t.Fatalf("Run over events at 10, 20, 20 and 35 stepped %d cycles, want 3", e.Steps())
	}
	e.Step()
	e.SetIdleSkip(false)
	if e.Run(5, nil); e.Steps() != 9 {
		t.Fatalf("one Step and a 5-cycle run without idle-skip brought Steps to %d, want 9", e.Steps())
	}
}

// TestWakeCyclesAreNotEvents: a wake cycle is no event: Pending does not
// count it, before or after it comes.
func TestWakeCyclesAreNotEvents(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	e.Sleep(p.i, 50)
	e.Schedule(80, func(uint64) {})
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d with one event and one wake cycle, want 1", e.Pending())
	}
	e.Run(60, nil)
	if e.Pending() != 1 || !slices.Equal(p.ticks, []uint64{50}) {
		t.Fatalf("after the wake cycle: Pending = %d, ticks %v; want 1 and [50]", e.Pending(), p.ticks)
	}
}

// TestSleepWakeBeyond64Tickers spans three words of the awake set: wakes
// reach the tickers they name, a wake carries into a later word within the
// cycle, and an awake ticker in the last word still blocks a skip.
func TestSleepWakeBeyond64Tickers(t *testing.T) {
	e := NewEngine()
	const n = 150
	var order []int
	probes := make([]*sleepProbe, n)
	for i := range probes {
		probes[i] = newSleepProbe(e)
		probes[i].onTick = func(uint64) { order = append(order, i) }
		if probes[i].i != i {
			t.Fatalf("Register returned %d for ticker %d", probes[i].i, i)
		}
	}
	// Ticker 63 wakes 64 and 140 from its Tick, across two word
	// boundaries; both tick in the same cycle.
	probes[63].onTick = func(uint64) {
		order = append(order, 63)
		e.Wake(64)
		e.Wake(140)
	}
	e.Schedule(2, func(uint64) {
		for _, i := range []int{129, 0, 63, 127} {
			e.Wake(i)
		}
	})
	stepTo(e, 3)
	if want := []int{0, 63, 64, 127, 129, 140}; !slices.Equal(order, want) {
		t.Fatalf("cycle 2 ticked %v, want %v", order, want)
	}
	order = order[:0]
	stepTo(e, 6)
	if len(order) != 0 {
		t.Fatalf("every ticker asleep, yet %v ticked", order)
	}

	// A wake cycle in the last word holds a fast-forward, and an awake
	// ticker there pins stepping.
	last := probes[n-1]
	e.Sleep(last.i, 50)
	e.Run(100, nil)
	if !slices.Equal(last.ticks, []uint64{50}) || e.Steps() != 7 {
		t.Fatalf("last ticker ticked at %v with %d cycles stepped, want [50] with 7", last.ticks, e.Steps())
	}
	last.naps = false
	e.Wake(last.i)
	e.Run(10, nil)
	if len(last.ticks) != 11 {
		t.Fatalf("awake ticker %d saw %d ticks, want 11", last.i, len(last.ticks))
	}
}

// TestIdleSkipDisabledWakesEveryTicker: with idle-skip off the engine ticks
// every ticker on every cycle, the sleeping ones included, and ignores
// wake cycles.
func TestIdleSkipDisabledWakesEveryTicker(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	e.Sleep(p.i, 40)
	e.SetIdleSkip(false)
	q := newSleepProbe(e)
	q.wake = 100
	stepTo(e, 3)
	if want := []uint64{0, 1, 2}; !slices.Equal(p.ticks, want) || !slices.Equal(q.ticks, want) {
		t.Fatalf("with idle-skip off, tickers ticked at %v and %v, want %v each", p.ticks, q.ticks, want)
	}
	if e.Run(10, nil); len(p.ticks) != 13 || e.Steps() != 13 {
		t.Fatalf("with idle-skip off, Run ticked %d times in %d steps, want 13 in 13", len(p.ticks), e.Steps())
	}
}
