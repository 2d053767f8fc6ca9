package systems

// A/B validation of the engine's quiescence fast-forward and awake set: a
// full system run with idle-skip enabled (sleeping tickers left out of the
// tick phase, quiescent stretches jumped) must produce a byte-identical
// report to the same run forced to tick every ticker on every cycle. Cycle
// counts, stats, energy, and the final memory image all participate via
// renderResult.

import (
	"context"
	"errors"
	"testing"

	"fusion/internal/host"
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
// number of cycles the engine stepped. skip=false forces the engine to step
// every cycle and to tick every ticker, asleep or not.
func runProbed(t *testing.T, b *workloads.Benchmark, cfg Config, skip bool) (*Result, uint64) {
	t.Helper()
	m := newMachine()
	m.eng.SetIdleSkip(skip)
	p := &stepProbe{}
	m.eng.Register(p)
	res, err := runOn(context.Background(), m, b, cfg)
	if err != nil {
		t.Fatalf("%s on %v (idle skip %v): %v", b.Program.Name, cfg.Kind, skip, err)
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
					skipped, skippedSteps := runProbed(t, b, DefaultConfig(kind), true)
					stepped, steps := runProbed(t, b, DefaultConfig(kind), false)
					if steps != stepped.Cycles {
						t.Errorf("stepped run ticked %d of %d cycles", steps, stepped.Cycles)
					}
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
	res, steps := runProbed(t, workloads.Get("disp"), DefaultConfig(Fusion), true)
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

// hostStepProbe is an always-idle ticker that counts the cycles the engine
// steps while the host core has a phase loaded.
type hostStepProbe struct {
	core  *host.Core
	steps uint64
}

func (p *hostStepProbe) Name() string { return "hoststepprobe" }
func (p *hostStepProbe) Idle() bool   { return true }

func (p *hostStepProbe) Tick(uint64) {
	if p.core.Busy() {
		p.steps++
	}
}

// TestIdleSkipStalledHost pins the fast-forward over host memory stalls:
// the host phase of random-0 streams cold lines from DRAM, so the core
// spends most of the phase with its LQ full or its ROB head waiting on a
// miss, and the engine must jump those cycles rather than step them. A
// host core that never reports idle while a phase is loaded steps every
// one of its busy cycles.
func TestIdleSkipStalledHost(t *testing.T) {
	m := newMachine()
	p := &hostStepProbe{core: m.core}
	m.eng.Register(p)
	b := workloads.Random(0, workloads.DefaultRandomParams())
	if _, err := runOn(context.Background(), m, b, DefaultConfig(Fusion)); err != nil {
		t.Fatal(err)
	}
	if busy := m.core.BusyCycles(); busy == 0 || p.steps*2 > busy {
		t.Fatalf("stepped %d of %d host-phase cycles; a stalled host core must not pin the engine to stepping",
			p.steps, busy)
	}
}
