package sim

// Unit tests for the awake set: a sleeping ticker costs the engine nothing
// per cycle, and a wake makes it tick at the cycle per-cycle stepping of
// every ticker would first give its Tick something to do.

import (
	"slices"
	"testing"
)

// sleepProbe is an idle ticker that records the cycles it ticks at, counts
// the Idle polls it answers, and runs onTick, if set, from its Tick.
type sleepProbe struct {
	ticks  []uint64
	polls  int
	onTick func(now uint64)
}

func (p *sleepProbe) Name() string { return "sleepprobe" }
func (p *sleepProbe) Idle() bool   { p.polls++; return true }

func (p *sleepProbe) Tick(now uint64) {
	p.ticks = append(p.ticks, now)
	if p.onTick != nil {
		p.onTick(now)
	}
}

// stepTo steps e until its clock reads end.
func stepTo(e *Engine, end uint64) {
	for e.Now() < end {
		e.Step()
	}
}

func TestSleepingTickerNeitherTickedNorPolled(t *testing.T) {
	e := NewEngine()
	p := &sleepProbe{}
	e.Sleep(e.Register(p))
	stepTo(e, 10)
	fired := false
	e.Schedule(1000, func(uint64) { fired = true })
	cycles, done := e.Run(2000, func() bool { return fired })
	if !done || cycles != 1001 {
		t.Fatalf("Run = (%d,%v), want (1001,true)", cycles, done)
	}
	if len(p.ticks) != 0 || p.polls != 0 {
		t.Fatalf("sleeping ticker ticked at %v and answered %d Idle polls, want none", p.ticks, p.polls)
	}
}

// TestSleepingOpaqueTickerDoesNotPinStepping: a ticker without Idle pins
// the engine to per-cycle stepping only while it is awake.
func TestSleepingOpaqueTickerDoesNotPinStepping(t *testing.T) {
	e := NewEngine()
	p := &sleepProbe{}
	e.Register(p)
	n := 0
	opaque := e.Register(tickFunc(func(uint64) { n++ }))
	e.Sleep(opaque)
	fired := false
	e.Schedule(1000, func(uint64) { fired = true })
	e.Run(2000, func() bool { return fired })
	if n != 0 || !slices.Equal(p.ticks, []uint64{1000}) {
		t.Fatalf("opaque ticker ticked %d times and the probe at %v, want 0 and [1000]", n, p.ticks)
	}
	e.Wake(opaque)
	e.Run(50, nil)
	if n != 50 {
		t.Fatalf("awake opaque ticker saw %d ticks, want 50", n)
	}
}

func TestWakeFromEventTicksThatCycle(t *testing.T) {
	e := NewEngine()
	p := &sleepProbe{}
	i := e.Register(p)
	e.Sleep(i)
	e.Schedule(5, func(uint64) { e.Wake(i) })
	stepTo(e, 8)
	if want := []uint64{5, 6, 7}; !slices.Equal(p.ticks, want) {
		t.Fatalf("woken at cycle 5, ticked at %v, want %v", p.ticks, want)
	}
	// Under Run a jump lands on the cycle of the event that wakes the
	// ticker, which ticks there and answers the Idle polls after it.
	e.Sleep(i)
	e.Schedule(100, func(uint64) { e.Wake(i) })
	e.Run(200, nil)
	if want := []uint64{5, 6, 7, 108}; !slices.Equal(p.ticks, want) || p.polls == 0 {
		t.Fatalf("woken at cycle 108, ticked at %v after %d polls, want %v after some",
			p.ticks, p.polls, want)
	}
}

// TestWakeOrderFollowsRegistration: the tick phase re-reads the awake set
// after every Tick, so a ticker woken by an earlier one ticks in the same
// cycle, one woken by a later one in the next, and one put to sleep by an
// earlier one before its turn not at all.
func TestWakeOrderFollowsRegistration(t *testing.T) {
	e := NewEngine()
	early, mid, late := &sleepProbe{}, &sleepProbe{}, &sleepProbe{}
	ie := e.Register(early)
	e.Register(mid)
	il := e.Register(late)
	e.Sleep(ie)
	e.Sleep(il)
	mid.onTick = func(now uint64) {
		switch now {
		case 3:
			e.Wake(ie)
			e.Wake(il)
		case 5:
			e.Sleep(il)
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

// TestSleepWakeBeyond64Tickers spans three words of the awake set: wakes
// reach the tickers they name, a wake carries into a later word within the
// cycle, and an awake busy ticker in the last word still blocks a skip.
func TestSleepWakeBeyond64Tickers(t *testing.T) {
	e := NewEngine()
	const n = 150
	var order []int
	probes := make([]*sleepProbe, n)
	for i := range probes {
		probes[i] = &sleepProbe{}
		probes[i].onTick = func(uint64) { order = append(order, i) }
		if got := e.Register(probes[i]); got != i {
			t.Fatalf("Register returned %d for ticker %d", got, i)
		}
		e.Sleep(i)
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
	for _, i := range []int{0, 63, 64, 127, 129, 140} {
		e.Sleep(i)
	}
	order = order[:0]
	stepTo(e, 6)
	if len(order) != 0 {
		t.Fatalf("every ticker asleep, yet %v ticked", order)
	}

	busy := &idleProbe{name: "busy", busy: true}
	ib := e.Register(busy)
	e.Sleep(ib)
	e.Run(100, nil)
	if len(busy.ticks) != 0 {
		t.Fatalf("sleeping busy ticker ticked at %v", busy.ticks)
	}
	e.Wake(ib)
	e.Run(10, nil)
	if len(busy.ticks) != 10 {
		t.Fatalf("awake busy ticker %d saw %d ticks, want 10", ib, len(busy.ticks))
	}
}

// TestIdleSkipDisabledWakesEveryTicker: with idle-skip off the engine ticks
// every ticker on every cycle, the sleeping ones included.
func TestIdleSkipDisabledWakesEveryTicker(t *testing.T) {
	e := NewEngine()
	p, q := &sleepProbe{}, &sleepProbe{}
	ip := e.Register(p)
	e.Sleep(ip)
	e.SetIdleSkip(false)
	e.Sleep(ip)
	e.Sleep(e.Register(q))
	stepTo(e, 3)
	if want := []uint64{0, 1, 2}; !slices.Equal(p.ticks, want) || !slices.Equal(q.ticks, want) {
		t.Fatalf("with idle-skip off, tickers ticked at %v and %v, want %v each", p.ticks, q.ticks, want)
	}
}
