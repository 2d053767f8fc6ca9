package litmus

import (
	"fmt"
	"sort"

	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/workloads"
)

const lineMask = ^uint64(mem.LineBytes - 1)

// Violation is one observation that contradicts the system's declared
// visibility model. It names the agent, line, cycle, and the write the
// agent should have observed.
type Violation struct {
	Obs   obs.Event
	Index int    // position in the recorded trace
	Line  uint64 // virtual line address (host observations are folded back)
	// Expected is the version of the write the agent should have observed
	// (for stores: the version it should have produced).
	Expected uint64
	Reason   string
}

func (v Violation) String() string {
	return fmt.Sprintf("agent %s line %#x+%d cycle %d epoch %d %s: %s",
		v.Obs.Agent, v.Line, v.Obs.Addr&^lineMask, v.Obs.Cycle, v.Obs.Epoch,
		v.Obs.Kind, v.Reason)
}

// Check replays a recorded observation trace against the visibility model
// and returns every violation in trace order.
//
// Per line, the checker maintains the globally-ordered current version:
// input lines start at 1 (preloaded by the host), everything else at 0,
// and each store observation advances it by one (phases run one agent at a
// time, so store order in the trace is the global order). Against that
// timeline:
//
//   - a strict read (Lease == 0: MESI clients, scratchpad) must observe
//     exactly the current version;
//   - a scratchpad fill must install exactly the current version;
//   - a store must produce current+1 — a lost or duplicated increment is
//     a protocol bug even when a later store masks it in the final image;
//   - a leased read (Lease > 0: L0X) must hold a live lease, must not
//     observe a version newer than current, and must observe at least the
//     version that was current when its synchronization epoch began —
//     bounded staleness is legal within a lease, never across a
//     task/acquire boundary.
//
// Scratchpad accesses to write-allocated lines (Delta) carry relative
// versions; their stores advance the timeline but their values are checked
// at writeback by the final-image diff instead.
//
// Host-side observations carry physical addresses; lineMap (from
// systems.Result) folds them back into the virtual line namespace so
// cross-agent visibility is checked on one timeline.
func Check(trace []obs.Event, b *workloads.Benchmark,
	lineMap map[mem.VAddr]mem.PAddr) []Violation {

	cur := make(map[uint64]uint64)
	for _, va := range b.InputLines {
		cur[uint64(va.LineAddr())] = 1
	}

	vas := make([]mem.VAddr, 0, len(lineMap))
	for va := range lineMap {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	p2v := make(map[uint64]uint64, len(vas))
	for _, va := range vas {
		p2v[uint64(lineMap[va].LineAddr())] = uint64(va.LineAddr())
	}

	epochStart := make(map[uint64]uint64) // version current when the line's epoch began
	lastEpoch := make(map[uint64]int32)
	var out []Violation

	for i := range trace {
		o := trace[i]
		if o.Kind != obs.Load && o.Kind != obs.Store && o.Kind != obs.Fill {
			// Filtered before the line/epoch bookkeeping below: only data
			// events carry checkable values; grants are diagnostic only
			// and must not advance epoch tracking.
			continue
		}
		line := o.Addr & lineMask
		if o.Phys {
			va, ok := p2v[line]
			if !ok {
				continue // outside the program image (nothing to check against)
			}
			line = va
		}
		c := cur[line]
		if e, seen := lastEpoch[line]; !seen || o.Epoch > e {
			lastEpoch[line] = o.Epoch
			epochStart[line] = c
		}
		bad := func(expected uint64, format string, args ...interface{}) {
			out = append(out, Violation{Obs: o, Index: i, Line: line,
				Expected: expected, Reason: fmt.Sprintf(format, args...)})
		}

		switch o.Kind {
		case obs.Store:
			if !o.Delta && o.Ver != c+1 {
				bad(c+1, "store produced v%d; sequential order requires v%d "+
					"(the write it built on was not the latest)", o.Ver, c+1)
			}
			cur[line] = c + 1
		case obs.Fill:
			if !o.Delta && o.Ver != c {
				bad(c, "fill installed v%d; the latest globally-ordered write is v%d",
					o.Ver, c)
			}
		case obs.Load:
			if o.Delta {
				continue
			}
			if o.Lease > 0 {
				if o.Lease <= o.Cycle {
					bad(c, "read under a lapsed lease (expired at cycle %d); "+
						"should have re-requested and observed write v%d",
						o.Lease, c)
				}
				if o.Ver > c {
					bad(c, "read v%d, newer than any globally-ordered write (v%d)",
						o.Ver, c)
				}
				if s := epochStart[line]; o.Ver < s {
					bad(s, "stale read across a sync boundary: v%d predates "+
						"epoch %d, which began after write v%d was ordered",
						o.Ver, o.Epoch, s)
				}
			} else if o.Ver != c {
				bad(c, "read v%d; should have observed the latest "+
					"globally-ordered write v%d", o.Ver, c)
			}
		default:
			// Unreachable: only data events pass the filter above.
		}
	}
	return out
}
