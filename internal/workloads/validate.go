package workloads

// Validation for externally produced or hand-edited benchmarks (see
// LoadJSON): catches the malformations that would otherwise surface as
// confusing simulator panics deep in a run.

import (
	"fmt"
	"sort"

	"fusion/internal/trace"
)

// Validate checks a benchmark for structural problems and returns them all
// (nil means the benchmark is runnable on every system).
func Validate(b *Benchmark) []error {
	var errs []error
	if b.Program == nil {
		return []error{fmt.Errorf("benchmark has no program")}
	}
	if len(b.Program.Phases) == 0 {
		errs = append(errs, fmt.Errorf("program %q has no phases", b.Program.Name))
	}

	seenAXC := map[int]bool{}
	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		inv := &ph.Inv
		switch ph.Kind {
		case trace.PhaseAccel:
			if inv.AXC < 0 {
				errs = append(errs, fmt.Errorf(
					"phase %d (%s): accelerator phase with AXC %d", i, inv.Function, inv.AXC))
			} else {
				seenAXC[inv.AXC] = true
			}
			if inv.LeaseTime == 0 && b.LeaseTimes[inv.Function] == 0 {
				errs = append(errs, fmt.Errorf(
					"phase %d (%s): no lease time (set Invocation.LeaseTime or Benchmark.LeaseTimes)",
					i, inv.Function))
			}
		case trace.PhaseHost:
			if inv.AXC >= 0 {
				errs = append(errs, fmt.Errorf(
					"phase %d (%s): host phase with AXC %d (use -1)", i, inv.Function, inv.AXC))
			}
		default:
			errs = append(errs, fmt.Errorf("phase %d (%s): unknown kind %d",
				i, inv.Function, ph.Kind))
		}
		if inv.Function == "" {
			errs = append(errs, fmt.Errorf("phase %d: empty function name", i))
		}
		if len(inv.Iterations) == 0 {
			errs = append(errs, fmt.Errorf("phase %d (%s): no iterations", i, inv.Function))
		}
		for j := range inv.Iterations {
			it := &inv.Iterations[j]
			if len(it.Loads) == 0 && len(it.Stores) == 0 && it.IntOps == 0 && it.FPOps == 0 {
				errs = append(errs, fmt.Errorf(
					"phase %d (%s) iteration %d: empty", i, inv.Function, j))
				break // one report per phase suffices
			}
			if it.IntOps < 0 || it.FPOps < 0 {
				errs = append(errs, fmt.Errorf(
					"phase %d (%s) iteration %d: negative op counts", i, inv.Function, j))
				break
			}
		}
	}

	// AXC ids must be dense from 0: the systems allocate one accelerator
	// and one L0X per id up to the maximum.
	axcs := make([]int, 0, len(seenAXC))
	for a := range seenAXC {
		axcs = append(axcs, a)
	}
	sort.Ints(axcs)
	max := -1
	if len(axcs) > 0 {
		max = axcs[len(axcs)-1]
	}
	// The first unused id is reported alone: walking every gap would take
	// as long as the largest id, which a hand-edited trace sets freely.
	for i, a := range axcs {
		if a != i {
			errs = append(errs, fmt.Errorf(
				"AXC ids not dense: %d unused while %d exists (gaps waste tile resources)", i, max))
			break
		}
	}

	// Forward sets must point at real accelerator phases and real consumers.
	// Sorted phase order keeps the error list reproducible.
	fwdPhases := make([]int, 0, len(b.Forwards))
	for i := range b.Forwards {
		fwdPhases = append(fwdPhases, i)
	}
	sort.Ints(fwdPhases)
	for _, i := range fwdPhases {
		f := b.Forwards[i]
		if i < 0 || i >= len(b.Program.Phases) {
			errs = append(errs, fmt.Errorf("forward set keyed by nonexistent phase %d", i))
			continue
		}
		if b.Program.Phases[i].Kind != trace.PhaseAccel {
			errs = append(errs, fmt.Errorf("forward set on non-accelerator phase %d", i))
		}
		if !seenAXC[f.Consumer] {
			errs = append(errs, fmt.Errorf(
				"forward set of phase %d targets unknown AXC %d", i, f.Consumer))
		}
		if len(f.Lines) == 0 {
			errs = append(errs, fmt.Errorf("forward set of phase %d is empty", i))
		}
	}
	return errs
}
