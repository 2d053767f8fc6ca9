package sim

import (
	"errors"
	"testing"
)

// TestInterruptPollCadence: the interrupt hook is polled at most once every
// `every` cycles, and a nil return never disturbs the run.
func TestInterruptPollCadence(t *testing.T) {
	e := NewEngine()
	e.Register(&countTicker{name: "busy"}) // never sleeps: forces per-cycle stepping
	polls := 0
	e.SetInterrupt(100, func() error { polls++; return nil })
	cycles, done, err := e.RunE(1000, nil)
	if err != nil || cycles != 1000 || done {
		t.Fatalf("RunE = (%d, %v, %v), want a clean 1000-cycle run", cycles, done, err)
	}
	// Polls land at cycles 100..900; the run ends at 1000 before the next
	// poll is due, so a completed run is never aborted retroactively.
	if polls != 9 {
		t.Errorf("hook polled %d times over 1000 cycles at every=100, want 9", polls)
	}
}

// TestInterruptAbortSurfacesError: a non-nil poll result stops the run at
// the current cycle and RunE returns exactly that error; the engine stays
// usable afterwards.
func TestInterruptAbortSurfacesError(t *testing.T) {
	e := NewEngine()
	e.Register(&countTicker{name: "busy"}) // per-cycle stepping for an exact abort cycle
	boom := errors.New("host asked us to stop")
	calls := 0
	e.SetInterrupt(50, func() error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	cycles, done, err := e.RunE(10_000, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("RunE error = %v, want the interrupt's error", err)
	}
	if done {
		t.Error("done = true on an aborted run")
	}
	if cycles != 150 {
		t.Errorf("aborted after %d cycles, want 150 (third poll at every=50)", cycles)
	}
	// The parked error is consumed: a later run is clean.
	e.SetInterrupt(0, nil)
	if _, _, err := e.RunE(10, nil); err != nil {
		t.Fatalf("post-abort RunE returned stale error %v", err)
	}
}

// TestInterruptPolledAcrossFastForward: a quiescence jump must not starve
// the interrupt poll — an idle engine with a far-future event still
// observes the abort within one jump.
func TestInterruptPolledAcrossFastForward(t *testing.T) {
	e := NewEngine()
	e.Schedule(1_000_000, func(uint64) {})
	boom := errors.New("abort during quiescence")
	e.SetInterrupt(4096, func() error { return boom })
	cycles, _, err := e.RunE(2_000_000, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("RunE error = %v, want the interrupt's error", err)
	}
	// The engine may fast-forward between polls, but never past the run:
	// the abort lands no later than the scheduled event's cycle.
	if cycles > 1_000_000 {
		t.Errorf("abort landed after %d cycles, past the only event", cycles)
	}
}

// TestInterruptDoesNotChangeResults: arming a never-firing interrupt poll
// leaves a run's cycle count identical to the unarmed run (the poll is
// observation-only).
func TestInterruptDoesNotChangeResults(t *testing.T) {
	run := func(armed bool) uint64 {
		e := NewEngine()
		hits := 0
		var step func(uint64)
		step = func(uint64) {
			hits++
			if hits < 20 {
				e.Schedule(37, step)
			}
		}
		e.Schedule(1, step)
		if armed {
			e.SetInterrupt(10, func() error { return nil })
		}
		cycles, _, err := e.RunE(5_000, func() bool { return hits == 20 })
		if err != nil {
			t.Fatal(err)
		}
		return cycles
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("armed poll changed the run: %d vs %d cycles", a, b)
	}
}
