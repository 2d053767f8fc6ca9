package scratchpad

import (
	"fmt"
	"slices"
	"testing"

	"fusion/internal/mem"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// windowsRef is the straightforward planner Windows must match window for
// window: three fresh sets per window (footprint, loaded, written) and the
// same admission, read-modify-write and first-touch ordering rules.
func windowsRef(inv *trace.Invocation, capacityLines int, live map[mem.VAddr]bool) []Window {
	var out []Window
	i := 0
	for i < len(inv.Iterations) {
		footprint := make(map[mem.VAddr]bool)
		written := make(map[mem.VAddr]bool)
		loaded := make(map[mem.VAddr]bool)
		var order []mem.VAddr
		j := i
		for ; j < len(inv.Iterations); j++ {
			it := &inv.Iterations[j]
			// Tentatively measure the footprint with this iteration added.
			add := 0
			for _, a := range it.Loads {
				if !footprint[a.LineAddr()] {
					add++
				}
			}
			for _, a := range it.Stores {
				if !footprint[a.LineAddr()] {
					add++
				}
			}
			if len(footprint)+add > capacityLines && j > i {
				break // window full; this iteration starts the next one
			}
			for _, a := range it.Loads {
				la := a.LineAddr()
				if !footprint[la] {
					footprint[la] = true
					order = append(order, la)
				}
				loaded[la] = true
			}
			for _, a := range it.Stores {
				la := a.LineAddr()
				if !footprint[la] {
					footprint[la] = true
					order = append(order, la)
				}
				if live[la] {
					loaded[la] = true // read-modify-write of live data
				}
				written[la] = true
			}
		}
		w := Window{Start: i, End: j}
		for _, la := range order {
			if loaded[la] {
				w.ReadSet = append(w.ReadSet, la)
			}
			if written[la] {
				w.WriteSet = append(w.WriteSet, la)
			}
		}
		out = append(out, w)
		i = j
	}
	return out
}

// diffWindows describes the first difference between two plans, or returns
// "" when they are identical window for window.
func diffWindows(got, want []Window) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d windows, want %d", len(got), len(want))
	}
	for k := range got {
		g, w := &got[k], &want[k]
		switch {
		case g.Start != w.Start || g.End != w.End:
			return fmt.Sprintf("window %d spans [%d,%d), want [%d,%d)", k, g.Start, g.End, w.Start, w.End)
		case !slices.Equal(g.ReadSet, w.ReadSet):
			return fmt.Sprintf("window %d read set %v, want %v", k, g.ReadSet, w.ReadSet)
		case !slices.Equal(g.WriteSet, w.WriteSet):
			return fmt.Sprintf("window %d write set %v, want %v", k, g.WriteSet, w.WriteSet)
		}
	}
	return ""
}

// TestWindowsMatchesReference plans every invocation of the paper programs
// and of seeded random programs with both planners, at a one-line, the
// small and the large scratchpad capacity, under three live sets: none,
// the preloaded inputs, and the inputs plus every earlier phase's stores
// (what SCRATCH passes).
func TestWindowsMatchesReference(t *testing.T) {
	var bms []*workloads.Benchmark
	for _, name := range workloads.Names() {
		bms = append(bms, workloads.Get(name))
	}
	for seed := int64(1); seed <= 8; seed++ {
		bms = append(bms, workloads.Random(seed, workloads.DefaultRandomParams()))
	}
	capacities := []int{1, 4 << 10 / mem.LineBytes, 8 << 10 / mem.LineBytes}
	windows := 0
	for bi, bm := range bms {
		inputs := make(map[mem.VAddr]bool)
		for _, va := range bm.InputLines {
			inputs[va.LineAddr()] = true
		}
		produced := make(map[mem.VAddr]bool)
		for la := range inputs {
			produced[la] = true
		}
		for pi := range bm.Program.Phases {
			inv := &bm.Program.Phases[pi].Inv
			for _, capacity := range capacities {
				for li, live := range []map[mem.VAddr]bool{nil, inputs, produced} {
					want := windowsRef(inv, capacity, live)
					if d := diffWindows(Windows(inv, capacity, live), want); d != "" {
						t.Fatalf("%s (benchmark %d) phase %d, capacity %d lines, live set %d: %s",
							bm.Program.Name, bi, pi, capacity, li, d)
					}
					windows += len(want)
				}
			}
			_, w := inv.Lines()
			for la := range w {
				produced[la] = true
			}
		}
	}
	if windows == 0 {
		t.Fatal("no windows planned")
	}
}
