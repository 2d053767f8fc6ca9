package systems

// A/B validation of the engine's quiescence fast-forward and awake set: a
// full system run with idle-skip enabled (sleeping tickers left out of the
// tick phase, quiescent stretches jumped) must produce a byte-identical
// report, or an identical watchdog error, to the same run forced to tick
// every ticker on every cycle. Cycle counts, stats, energy, and the final
// memory image all participate via renderResult.

import (
	"context"
	"errors"
	"testing"

	"fusion/internal/faults"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// runProbed runs b under cfg and returns the result, the number of cycles
// the engine stepped and the run's error. skip=false forces the engine to
// step every cycle and to tick every ticker, asleep or not.
func runProbed(b *workloads.Benchmark, cfg Config, skip bool) (*Result, uint64, error) {
	m := newMachine()
	m.eng.SetIdleSkip(skip)
	res, err := runOn(context.Background(), m, b, cfg)
	return res, m.eng.Steps(), err
}

func TestIdleSkipInvariant(t *testing.T) {
	// A serial program, a pipelined one, and a seeded random program.
	benches := []*workloads.Benchmark{
		workloads.Get("adpcm"),
		workloads.Get("fft"),
		workloads.Random(5, workloads.DefaultRandomParams()),
	}
	// The default run; fusionsim's default watchdog window under a fault
	// plan, which never trips; and the tripping windows of make
	// cells-diff, one under a fault plan.
	watchdogs := []struct {
		name              string
		window, faultSeed uint64
	}{
		{"default", 0, 0},
		{"watchdog-1000000-faults-7", 1_000_000, 7},
		{"watchdog-3", 3, 0},
		{"watchdog-200-faults-3", 200, 3},
	}
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, b := range benches {
				t.Run(b.Program.Name, func(t *testing.T) {
					for _, wd := range watchdogs {
						t.Run(wd.name, func(t *testing.T) {
							cfg := DefaultConfig(kind)
							cfg.WatchdogCycles = wd.window
							if wd.faultSeed != 0 {
								plan := faults.RandomPlan(wd.faultSeed)
								cfg.Faults = &plan
							}
							checkSkipMatchesStepping(t, b, cfg)
						})
					}
				})
			}
		})
	}
}

// checkSkipMatchesStepping runs b under cfg with and without idle-skip and
// requires the same report, or the same watchdog error.
func checkSkipMatchesStepping(t *testing.T, b *workloads.Benchmark, cfg Config) {
	t.Helper()
	skipped, skippedSteps, skipErr := runProbed(b, cfg, true)
	stepped, steps, stepErr := runProbed(b, cfg, false)
	if skipErr != nil || stepErr != nil {
		var skipPE, stepPE *sim.ProtocolError
		if !errors.As(skipErr, &skipPE) || !errors.As(stepErr, &stepPE) ||
			skipPE.Component != "watchdog" {
			t.Fatalf("want the same watchdog trip under skip and step, got %v and %v", skipErr, stepErr)
		}
		if skipPE.Component != stepPE.Component || skipPE.Cycle != stepPE.Cycle ||
			skipPE.Message != stepPE.Message || skipPE.State != stepPE.State {
			t.Fatalf("idle-skip changed the watchdog trip:\nskip: %v\n%s\nstep: %v\n%s",
				skipErr, skipPE.State, stepErr, stepPE.State)
		}
		return
	}
	if steps != stepped.Cycles {
		t.Errorf("stepped run stepped %d of %d cycles", steps, stepped.Cycles)
	}
	skip, step := renderResult(skipped), renderResult(stepped)
	if skip != step {
		t.Fatalf("idle-skip changed the %s report:\nskip:\n%s\nstep:\n%s", cfg.System, skip, step)
	}
	t.Logf("stepped %d of %d cycles (%.1f%%)", skippedSteps, skipped.Cycles,
		100*float64(skippedSteps)/float64(skipped.Cycles))
}

// TestIdleSkipStalledDatapath pins the fast-forward over memory stalls: on
// FUSION, disp's datapath spends most of its time waiting on L0X/L1X
// completions, and the engine must jump those cycles rather than step them.
func TestIdleSkipStalledDatapath(t *testing.T) {
	res, steps, err := runProbed(workloads.Get("disp"), DefaultConfig(Fusion), true)
	if err != nil {
		t.Fatal(err)
	}
	if steps*2 > res.Cycles {
		t.Fatalf("stepped %d of %d cycles; a stalled datapath must not pin the engine to stepping",
			steps, res.Cycles)
	}
}

// TestIdleSkipWatchdogTrip wedges a FUSION run with a tiny watchdog window
// and asserts the watchdog still fires (the fast-forward is capped at the
// trip deadline rather than jumping over it).
func TestIdleSkipWatchdogTrip(t *testing.T) {
	cfg := DefaultConfig(Fusion)
	cfg.WatchdogCycles = 1 // trips during the first legitimate quiet stretch
	_, err := Run(workloads.Get("adpcm"), cfg)
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) || pe.Component != "watchdog" {
		t.Fatalf("expected a watchdog trip with a 1-cycle window, got %v", err)
	}
}

// TestIdleSkipWatchdogAddsNoSteps: a watchdog that never trips costs no
// stepped cycle. Heartbeats move its wake cycle with its deadline, so it
// wakes only to trip, and a faulted fft on FUSION under a 1,000-cycle
// window steps exactly the cycles it steps with no watchdog.
func TestIdleSkipWatchdogAddsNoSteps(t *testing.T) {
	plan := faults.RandomPlan(7)
	cfg := DefaultConfig(Fusion)
	cfg.Faults = &plan
	bare, bareSteps, err := runProbed(workloads.Get("fft"), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WatchdogCycles = 1000
	watched, watchedSteps, err := runProbed(workloads.Get("fft"), cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if watchedSteps != bareSteps || renderResult(watched) != renderResult(bare) {
		t.Fatalf("the watchdog moved the run: %d stepped cycles with it, %d without", watchedSteps, bareSteps)
	}
}

// phaseSteps is an observer that reads the engine's stepped-cycle count at
// every phase mark.
type phaseSteps struct {
	eng   *sim.Engine
	marks []uint64
}

func (p *phaseSteps) Record(e obs.Event) {
	if e.Kind == obs.Phase {
		p.marks = append(p.marks, p.eng.Steps())
	}
}

// TestIdleSkipStalledHost pins the fast-forward over host memory stalls:
// the host phase of random-0 streams cold lines from DRAM, so the core
// spends most of the phase with its LQ full or its ROB head waiting on a
// miss, and the engine must jump those cycles rather than step them. A
// host core that never sleeps while a phase is loaded steps every one of
// its busy cycles.
func TestIdleSkipStalledHost(t *testing.T) {
	m := newMachine()
	b := workloads.Random(0, workloads.DefaultRandomParams())
	p := &phaseSteps{eng: m.eng}
	cfg := DefaultConfig(Fusion)
	cfg.Observer = p
	if _, err := runOn(context.Background(), m, b, cfg); err != nil {
		t.Fatal(err)
	}
	p.marks = append(p.marks, m.eng.Steps())
	steps := uint64(0)
	for i, ph := range b.Program.Phases {
		if ph.Kind == trace.PhaseHost {
			steps += p.marks[i+1] - p.marks[i]
		}
	}
	if busy := m.core.BusyCycles(); busy == 0 || steps*2 > busy {
		t.Fatalf("stepped %d of %d host-phase cycles; a stalled host core must not pin the engine to stepping",
			steps, busy)
	}
}
