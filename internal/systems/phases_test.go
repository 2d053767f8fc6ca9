package systems

import (
	"testing"

	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// TestPhaseAccounting checks the per-phase results every system reports
// against the program it ran: one result per program phase, in order, with
// the phase's function and AXC (-1 for host phases); phase cycles that fit
// inside the run (the rest is the end-of-run drain); DMA cycles only where
// a scratchpad path exists; and, on ADAPTIVE, exactly one placement
// decision per accelerator phase. ADAPTIVE also runs its learned policy
// with Large scratchpads, which places fft's tasks in all three places.
func TestPhaseAccounting(t *testing.T) {
	benches := []*workloads.Benchmark{
		workloads.Get("adpcm"),
		workloads.Get("fft"),
		workloads.Random(5, workloads.DefaultRandomParams()),
	}
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			checkPhaseAccounting(t, DefaultConfig(kind), benches)
		})
	}
	t.Run("ADAPTIVE-learned-large", func(t *testing.T) {
		cfg := DefaultConfig(Adaptive)
		cfg.Policy = "learned"
		cfg.Large = true
		checkPhaseAccounting(t, cfg, benches)
	})
}

func checkPhaseAccounting(t *testing.T, cfg Config, benches []*workloads.Benchmark) {
	kind, _ := ParseKind(cfg.System)
	for _, b := range benches {
		res, err := Run(b, cfg)
		if err != nil {
			t.Fatalf("%s: %v", b.Program.Name, err)
		}
		phases := b.Program.Phases
		if len(res.Phases) != len(phases) {
			t.Fatalf("%s: %d phase results for %d program phases",
				b.Program.Name, len(res.Phases), len(phases))
		}
		var sum uint64
		var accelPhases int64
		for i, r := range res.Phases {
			ph := &phases[i]
			axc := -1
			if ph.Kind == trace.PhaseAccel {
				axc = ph.Inv.AXC
				accelPhases++
			}
			if r.Function != ph.Inv.Function || r.AXC != axc {
				t.Errorf("%s phase %d: got %s on AXC %d, program has %s on AXC %d",
					b.Program.Name, i, r.Function, r.AXC, ph.Inv.Function, axc)
			}
			if r.DMACycles > 0 && kind != Scratch && kind != Adaptive {
				t.Errorf("%s phase %d: %d DMA cycles on %v, which has no DMA path",
					b.Program.Name, i, r.DMACycles, kind)
			}
			sum += r.Cycles
		}
		if sum > res.Cycles {
			t.Errorf("%s: phase cycles sum to %d, more than the run's %d",
				b.Program.Name, sum, res.Cycles)
		}
		if kind == Adaptive {
			placed := res.Stats.Get("adaptive.place_l0x") +
				res.Stats.Get("adaptive.place_scratch") +
				res.Stats.Get("adaptive.place_uncached")
			if placed != accelPhases {
				t.Errorf("%s: %d placement decisions for %d accelerator phases",
					b.Program.Name, placed, accelPhases)
			}
		}
	}
}
