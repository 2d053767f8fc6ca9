//go:build !race

// Allocation-discipline tests. They are excluded under the race detector:
// the race runtime instruments allocations and makes AllocsPerRun counts
// meaningless.
package workloads

import "testing"

// TestRandomAllocatesPerPhase: Random carves each iteration's loads and
// stores out of its phase's address streams, so a program's allocations
// follow its phases, not its iterations (seeds 1000-1007 hold 21 phases
// and 8,034 iterations).
func TestRandomAllocatesPerPhase(t *testing.T) {
	for seed := int64(1000); seed < 1008; seed++ {
		var b *Benchmark
		allocs := testing.AllocsPerRun(1, func() { b = Random(seed, DefaultRandomParams()) })
		phases, iters := len(b.Program.Phases), 0
		for i := range b.Program.Phases {
			iters += len(b.Program.Phases[i].Inv.Iterations)
		}
		if limit := 128 + 32*phases; allocs > float64(limit) {
			t.Errorf("seed %d: %.0f allocations for %d phases of %d iterations, want at most %d",
				seed, allocs, phases, iters, limit)
		}
	}
}
