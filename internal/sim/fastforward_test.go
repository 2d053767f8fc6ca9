package sim

// Unit tests for the quiescence fast-forward: the jump must be observably
// identical to per-cycle stepping — same cycle counts, same predicate
// observation points, same interrupt and watchdog semantics — while actually
// skipping the tickers' no-op cycles.

import (
	"errors"
	"math"
	"testing"
)

// idleProbe is a Ticker/IdleTicker with a controllable idle answer that
// records every Tick it receives.
type idleProbe struct {
	name  string
	busy  bool
	ticks []uint64
}

func (p *idleProbe) Name() string    { return p.name }
func (p *idleProbe) Tick(now uint64) { p.ticks = append(p.ticks, now) }
func (p *idleProbe) Idle() bool      { return !p.busy }

func TestFastForwardSkipsIdleCycles(t *testing.T) {
	e := NewEngine()
	p := &idleProbe{name: "p"}
	e.Register(p)
	fired := uint64(0)
	e.Schedule(1000, func(now uint64) { fired = now })
	cycles, done := e.Run(2000, func() bool { return fired != 0 })
	if !done || cycles != 1001 {
		t.Fatalf("Run = (%d,%v), want (1001,true) — stepping semantics", cycles, done)
	}
	if fired != 1000 {
		t.Fatalf("event fired at %d, want 1000", fired)
	}
	// The only Tick the probe may see is at cycle 1000 (the event's cycle);
	// cycles 0..999 are quiescent and skipped.
	if len(p.ticks) != 1 || p.ticks[0] != 1000 {
		t.Fatalf("probe ticked at %v, want [1000]", p.ticks)
	}
}

func TestFastForwardPredObservedAtSkippedToCycle(t *testing.T) {
	e := NewEngine()
	e.Register(&idleProbe{name: "p"})
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

func TestFastForwardRespectsMaxCycles(t *testing.T) {
	e := NewEngine()
	e.Register(&idleProbe{name: "p"})
	cycles, done := e.Run(100, nil)
	if done || cycles != 100 || e.Now() != 100 {
		t.Fatalf("Run = (%d,%v) now=%d, want (100,false) now=100", cycles, done, e.Now())
	}
}

func TestFastForwardBlockedByBusyTicker(t *testing.T) {
	e := NewEngine()
	p := &idleProbe{name: "p", busy: true}
	e.Register(p)
	e.Run(50, nil)
	if len(p.ticks) != 50 {
		t.Fatalf("busy ticker saw %d ticks, want 50", len(p.ticks))
	}
}

func TestFastForwardBlockedByOpaqueTicker(t *testing.T) {
	e := NewEngine()
	e.Register(&idleProbe{name: "idle"})
	n := 0
	e.Register(tickFunc(func(uint64) { n++ })) // no IdleTicker: counts as busy
	e.Run(50, nil)
	if n != 50 {
		t.Fatalf("opaque ticker saw %d ticks, want 50", n)
	}
}

func TestFastForwardDisabled(t *testing.T) {
	e := NewEngine()
	p := &idleProbe{name: "p"}
	e.Register(p)
	e.SetIdleSkip(false)
	e.Run(50, nil)
	if len(p.ticks) != 50 {
		t.Fatalf("with idle-skip disabled the ticker saw %d ticks, want 50", len(p.ticks))
	}
}

// TestFastForwardWatchdogTripCycle: with no heartbeats, the watchdog must
// trip at exactly last+window+1 — the same cycle as under stepping — even
// though the next event lies far beyond it.
func TestFastForwardWatchdogTripCycle(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 50)
	e.Register(&idleProbe{name: "p"})
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
// skipped region move the trip deadline forward, and the eventual trip
// lands at exactly the stepped-semantics cycle.
func TestFastForwardWatchdogHeartbeats(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 50)
	e.Register(&idleProbe{name: "p"})
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
}

// TestFastForwardHealthyWatchdogRun: a run whose heartbeats always arrive
// inside the window completes without tripping, with skips between beats.
func TestFastForwardHealthyWatchdogRun(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 100)
	p := &idleProbe{name: "p"}
	e.Register(p)
	done := false
	for at := uint64(50); at <= 500; at += 50 {
		at := at
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
	// Ticks only at event cycles (50,100,...,500), never in between.
	if len(p.ticks) != 10 {
		t.Fatalf("probe saw %d ticks, want 10 (one per heartbeat event)", len(p.ticks))
	}
}

// TestFastForwardMaxWatchdogWindow: a window so wide that its deadline lies
// past the last representable cycle must saturate, not wrap to a deadline
// behind the clock that would pin the engine to per-cycle stepping.
func TestFastForwardMaxWatchdogWindow(t *testing.T) {
	e := NewEngine()
	e.Step()
	NewWatchdog(e, math.MaxUint64)
	p := &idleProbe{name: "p"}
	e.Register(p)
	fired := false
	e.Schedule(1000, func(uint64) { fired = true })
	cycles, done, err := e.RunE(2000, func() bool { return fired })
	if err != nil || !done || cycles != 1001 {
		t.Fatalf("RunE = (%d,%v,%v), want (1001,true,nil)", cycles, done, err)
	}
	if len(p.ticks) != 1 {
		t.Fatalf("probe stepped %d cycles, want 1 (only the event's cycle)", len(p.ticks))
	}
}
