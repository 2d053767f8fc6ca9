package sim

// Unit tests for the quiescence fast-forward: the jump must be observably
// identical to per-cycle stepping — same cycle counts, same predicate
// observation points, same interrupt and watchdog semantics — while
// actually skipping the cycles in which no ticker is awake and nothing is
// due. Engine.Steps counts the cycles that were stepped.

import (
	"errors"
	"math"
	"testing"
)

func TestFastForwardSkipsIdleCycles(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	fired := uint64(0)
	e.Schedule(1000, func(now uint64) { fired = now })
	cycles, done := e.Run(2000, func() bool { return fired != 0 })
	if !done || cycles != 1001 {
		t.Fatalf("Run = (%d,%v), want (1001,true) — stepping semantics", cycles, done)
	}
	if fired != 1000 {
		t.Fatalf("event fired at %d, want 1000", fired)
	}
	// The only cycle stepped is the event's; cycles 0..999 are quiescent
	// and skipped, and the sleeper is never ticked.
	if e.Steps() != 1 || len(p.ticks) != 0 {
		t.Fatalf("stepped %d cycles and ticked the sleeper at %v, want 1 and none", e.Steps(), p.ticks)
	}
}

func TestFastForwardPredObservedAtSkippedToCycle(t *testing.T) {
	e := NewEngine()
	newSleepProbe(e)
	hit := false
	e.Schedule(1000, func(uint64) { hit = true })
	var observed []uint64
	_, done := e.Run(2000, func() bool {
		observed = append(observed, e.Now())
		return hit
	})
	if !done {
		t.Fatal("predicate never satisfied")
	}
	want := []uint64{0, 1000, 1001}
	if len(observed) != len(want) {
		t.Fatalf("pred observed at %v, want %v", observed, want)
	}
	for i := range want {
		if observed[i] != want[i] {
			t.Fatalf("pred observed at %v, want %v", observed, want)
		}
	}
}

// TestFastForwardRespectsMaxCycles: the budget caps a jump, and a wake
// cycle at or past the budget's end is not stepped.
func TestFastForwardRespectsMaxCycles(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	e.Sleep(p.i, 100)
	cycles, done := e.Run(100, nil)
	if done || cycles != 100 || e.Now() != 100 {
		t.Fatalf("Run = (%d,%v) now=%d, want (100,false) now=100", cycles, done, e.Now())
	}
	if e.Steps() != 0 || len(p.ticks) != 0 {
		t.Fatalf("stepped %d cycles, ticked at %v; want none", e.Steps(), p.ticks)
	}
}

// TestFastForwardBlockedByBusyTicker: a ticker stays awake while it has
// work, which pins the engine to per-cycle stepping until it sleeps.
func TestFastForwardBlockedByBusyTicker(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	p.naps = false
	p.onTick = func(now uint64) { p.naps = now == 49 }
	e.Wake(p.i)
	e.Run(100, nil)
	if len(p.ticks) != 50 || e.Steps() != 50 {
		t.Fatalf("busy ticker saw %d ticks in %d steps, want 50 in 50", len(p.ticks), e.Steps())
	}
}

// TestFastForwardBlockedByOpaqueTicker: a ticker that never sleeps pins
// the engine to per-cycle stepping, whatever the others do.
func TestFastForwardBlockedByOpaqueTicker(t *testing.T) {
	e := NewEngine()
	newSleepProbe(e)
	n := 0
	e.Register(tickFunc(func(uint64) { n++ }))
	e.Run(50, nil)
	if n != 50 || e.Steps() != 50 {
		t.Fatalf("opaque ticker saw %d ticks in %d steps, want 50 in 50", n, e.Steps())
	}
}

func TestFastForwardDisabled(t *testing.T) {
	e := NewEngine()
	p := newSleepProbe(e)
	e.SetIdleSkip(false)
	e.Run(50, nil)
	if len(p.ticks) != 50 || e.Steps() != 50 {
		t.Fatalf("with idle-skip disabled the ticker saw %d ticks in %d steps, want 50 in 50",
			len(p.ticks), e.Steps())
	}
}

// TestFastForwardWatchdogTripCycle: with no heartbeats, the watchdog must
// trip at exactly last+window+1 — the same cycle as under stepping — even
// though the next event lies far beyond it.
func TestFastForwardWatchdogTripCycle(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 50)
	newSleepProbe(e)
	e.Schedule(100_000, func(uint64) {})
	_, _, err := e.RunE(1_000_000, nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Component != "watchdog" {
		t.Fatalf("expected watchdog trip, got %v", err)
	}
	if pe.Cycle != 51 {
		t.Fatalf("watchdog tripped at cycle %d, want 51 (last=0, window=50)", pe.Cycle)
	}
}

// TestFastForwardWatchdogHeartbeats: periodic Progress beats inside the
// skipped region move the trip deadline, and the watchdog's wake cycle
// with it, forward, and the eventual trip lands at exactly the
// stepped-semantics cycle.
func TestFastForwardWatchdogHeartbeats(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 50)
	newSleepProbe(e)
	for _, at := range []uint64{40, 80, 120, 160, 200} {
		e.ScheduleAt(at, func(uint64) { e.Progress() })
	}
	_, _, err := e.RunE(1_000_000, nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Component != "watchdog" {
		t.Fatalf("expected watchdog trip, got %v", err)
	}
	if pe.Cycle != 251 {
		t.Fatalf("watchdog tripped at cycle %d, want 251 (last beat at 200)", pe.Cycle)
	}
	// Stepped: the five beats only; the watchdog never wakes before its
	// deadline, and the trip at 251 never completes its step.
	if e.Steps() != 5 {
		t.Fatalf("stepped %d cycles, want 5", e.Steps())
	}
}

// TestFastForwardBeatOnDeadline: a beat in the deadline cycle's event
// phase, or from a ticker registered before the watchdog in that cycle's
// tick phase, moves the deadline before the watchdog ticks, so the trip
// lands a full window later; a beat from a later ticker comes after the
// trip. Skipping and stepping agree on every trip cycle.
func TestFastForwardBeatOnDeadline(t *testing.T) {
	for _, tc := range []struct {
		from string
		trip uint64
	}{{"event", 22}, {"earlier-ticker", 22}, {"later-ticker", 11}} {
		for _, skip := range []bool{true, false} {
			e := NewEngine()
			e.SetIdleSkip(skip)
			beat := func(now uint64) {
				if now == 11 {
					e.Progress()
				}
			}
			var p *sleepProbe
			if tc.from == "earlier-ticker" {
				p = newSleepProbe(e)
			}
			NewWatchdog(e, 10) // deadline 11
			if tc.from == "later-ticker" {
				p = newSleepProbe(e)
			}
			if p != nil {
				p.onTick = beat
				e.Sleep(p.i, 11)
			} else {
				e.ScheduleAt(11, beat)
			}
			_, _, err := e.RunE(1000, nil)
			var pe *ProtocolError
			if !errors.As(err, &pe) || pe.Cycle != tc.trip {
				t.Errorf("%s beat, skip=%v: got %v, want a watchdog trip at cycle %d", tc.from, skip, err, tc.trip)
			}
		}
	}
}

// TestFastForwardHealthyWatchdogRun: a run whose heartbeats always arrive
// inside the window completes without tripping, with skips between beats.
func TestFastForwardHealthyWatchdogRun(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 100)
	p := newSleepProbe(e)
	done := false
	for at := uint64(50); at <= 500; at += 50 {
		e.ScheduleAt(at, func(uint64) {
			e.Progress()
			if at == 500 {
				done = true
			}
		})
	}
	cycles, ok, err := e.RunE(10_000, func() bool { return done })
	if err != nil || !ok {
		t.Fatalf("RunE = (%d,%v,%v), want clean completion", cycles, ok, err)
	}
	if cycles != 501 {
		t.Fatalf("completed after %d cycles, want 501", cycles)
	}
	// Steps only at event cycles (50,100,...,500), never in between.
	if e.Steps() != 10 || len(p.ticks) != 0 {
		t.Fatalf("stepped %d cycles and ticked the sleeper at %v, want 10 and none", e.Steps(), p.ticks)
	}
}

// TestFastForwardMaxWatchdogWindow: a window so wide that its deadline lies
// past the last representable cycle must saturate, not wrap to a deadline
// behind the clock that would pin the engine to per-cycle stepping.
func TestFastForwardMaxWatchdogWindow(t *testing.T) {
	e := NewEngine()
	e.Step()
	NewWatchdog(e, math.MaxUint64)
	newSleepProbe(e)
	fired := false
	e.Schedule(1000, func(uint64) { fired = true })
	cycles, done, err := e.RunE(2000, func() bool { return fired })
	if err != nil || !done || cycles != 1001 {
		t.Fatalf("RunE = (%d,%v,%v), want (1001,true,nil)", cycles, done, err)
	}
	if e.Steps() != 2 {
		t.Fatalf("stepped %d cycles, want 2 (cycle 0 by hand and the event's)", e.Steps())
	}
}
