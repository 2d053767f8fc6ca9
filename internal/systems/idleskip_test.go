package systems

// A/B validation of the engine's quiescence fast-forward: a full system
// run with idle-skip enabled must produce a byte-identical report to the
// same run forced to step every cycle. Cycle counts, stats, energy, and
// the final memory image all participate via renderResult.

import (
	"context"
	"errors"
	"testing"

	"fusion/internal/sim"
	"fusion/internal/workloads"
)

// stepProbe is an always-idle ticker that counts its Tick calls: the engine
// ticks it on every cycle it steps and skips it with everyone else during a
// fast-forward.
type stepProbe struct{ steps uint64 }

func (p *stepProbe) Name() string { return "stepprobe" }
func (p *stepProbe) Tick(uint64)  { p.steps++ }
func (p *stepProbe) Idle() bool   { return true }

// runProbed runs b under cfg with a stepProbe and returns the result and the
// number of cycles the engine stepped.
func runProbed(t *testing.T, b *workloads.Benchmark, cfg Config) (*Result, uint64) {
	t.Helper()
	m := newMachine()
	p := &stepProbe{}
	m.eng.Register(p)
	res, err := runOn(context.Background(), m, b, cfg)
	if err != nil {
		t.Fatalf("%s on %v (NoIdleSkip=%v): %v", b.Program.Name, cfg.Kind, cfg.NoIdleSkip, err)
	}
	return res, p.steps
}

func TestIdleSkipInvariant(t *testing.T) {
	// A serial program, a pipelined one, and a seeded random program.
	benches := []*workloads.Benchmark{
		workloads.Get("adpcm"),
		workloads.Get("fft"),
		workloads.Random(5, workloads.DefaultRandomParams()),
	}
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, b := range benches {
				t.Run(b.Program.Name, func(t *testing.T) {
					skipped, skippedSteps := runProbed(t, b, DefaultConfig(kind))
					cfg := DefaultConfig(kind)
					cfg.NoIdleSkip = true
					stepped, steps := runProbed(t, b, cfg)
					if steps != stepped.Cycles {
						t.Errorf("stepped run ticked %d of %d cycles", steps, stepped.Cycles)
					}
					// The configs differ only in the skip knob, which is not
					// part of the simulated machine; blank it before comparing.
					skipped.Config.NoIdleSkip = false
					stepped.Config.NoIdleSkip = false
					skip, step := renderResult(skipped), renderResult(stepped)
					if skip != step {
						t.Fatalf("idle-skip changed the %v report:\nskip:\n%s\nstep:\n%s",
							kind, skip, step)
					}
					t.Logf("stepped %d of %d cycles (%.1f%%)", skippedSteps, skipped.Cycles,
						100*float64(skippedSteps)/float64(skipped.Cycles))
				})
			}
		})
	}
}

// TestIdleSkipStalledDatapath pins the fast-forward over memory stalls: on
// FUSION, disp's datapath spends most of its time waiting on L0X/L1X
// completions, and the engine must jump those cycles rather than step them.
func TestIdleSkipStalledDatapath(t *testing.T) {
	res, steps := runProbed(t, workloads.Get("disp"), DefaultConfig(Fusion))
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
