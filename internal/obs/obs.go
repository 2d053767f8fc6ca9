// Package obs is the simulator's one instrumentation hook. Components
// report three streams through it as one by-value Event: the loads, stores
// and fills an agent performs; the protocol transitions of the ACC tile
// and the host directory (the lease grants, self-invalidations and parked
// host forwards of the paper's Figures 4 and 5); and a mark at every phase
// boundary. The litmus harness (internal/litmus) replays the data events
// against each system's visibility model; Writer and Collector render or
// keep the stream for inspection.
//
// The hook is designed for a zero-cost off state: components hold a nil
// Observer by default and guard every Record call with one nil check, so
// the per-cycle hot path stays within the allocation budgets
// (BENCH_BUDGET.json) when observation is off. Events are passed by value
// and carry protocol context in typed fields that only String formats, so
// recording never allocates in the component; the Observer owns any
// buffering.
package obs

import (
	"fmt"
	"io"
)

// Kind classifies an event.
type Kind uint8

// Data events: what an agent reads, writes or installs.
const (
	// Load is an agent-visible read; Ver is the version the agent observed.
	Load Kind = iota
	// Store is an agent-visible write; Ver is the version it produced.
	Store
	// Fill is data installed into an agent-local store from the backing
	// hierarchy (scratchpad DMA-in); Ver is the version installed.
	Fill

	// ACC-protocol transitions (accelerator tile).
	L0XMiss        // lease/epoch request Msg leaves an L0X
	LeaseGrant     // L1X grants AXC Peer a read lease of Ver until Lease
	EpochGrant     // L1X grants AXC Peer a write epoch of Ver until Lease
	SelfInvalidate // L0X drops an expired line (no message)
	SelfDowngrade  // write epoch expiry forces a writeback
	Writeback      // dirty line returns to the L1X
	DxForward      // producer pushes a line to consumer AXC Peer, lease Lease
	WLockStall     // request Msg from AXC Peer parked behind a write epoch
	GTimeStall     // write from AXC Peer parked behind read leases until Lease
	L1XFetch       // L1X miss goes to the host for physical line PA (AX-TLB)
	HostFwdIn      // MESI forward Msg arrives at the tile (AX-RMAP)
	FwdParked      // response waits in the WB buffer until GTIME Lease
	Relinquish     // tile gives the line back to host agent Peer (Dirty)

	// Host-MESI transitions (directory); Peer is the requesting agent.
	DirRead
	DirWrite
	DirForward // forward Msg to owner Peer on behalf of agent Requester
	DirPut
	DirDMARead
	DirDMAWrite

	// Phase marks the start of synchronization epoch Epoch (a program
	// phase); the runner records one at every phase boundary.
	Phase
)

var kindNames = [...]string{
	Load: "LD", Store: "ST", Fill: "FILL",
	L0XMiss: "l0x-miss", LeaseGrant: "lease-grant", EpochGrant: "epoch-grant",
	SelfInvalidate: "self-invalidate", SelfDowngrade: "self-downgrade",
	Writeback: "writeback", DxForward: "dx-forward", WLockStall: "wlock-stall",
	GTimeStall: "gtime-stall", L1XFetch: "l1x-fetch", HostFwdIn: "host-fwd",
	FwdParked: "fwd-parked", Relinquish: "relinquish",
	DirRead: "dir-gets", DirWrite: "dir-getm", DirForward: "dir-fwd",
	DirPut: "dir-put", DirDMARead: "dir-dma-read", DirDMAWrite: "dir-dma-write",
	Phase: "phase",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Protocol reports whether k is an ACC or directory protocol transition
// rather than a data event or a phase mark.
func (k Kind) Protocol() bool { return k >= L0XMiss && k <= DirDMAWrite }

// Event is one observed event. Every event sets Cycle, Agent and Kind; the
// other fields are set by the kinds whose comments name them.
type Event struct {
	Cycle uint64
	Agent string // stable component name, e.g. "l0x.1", "l1x", "hostl1", "dir"
	// Addr is the address involved. Data events carry the full accessed
	// address (line = Addr &^ (LineBytes-1), offset = Addr &
	// (LineBytes-1)), virtual for tile-side agents and physical (Phys) for
	// host-side MESI agents; protocol events carry the line address the
	// component indexes by.
	Addr uint64
	// Ver is the modeled payload version: observed on Load/Fill, produced
	// on Store, granted on LeaseGrant/EpochGrant.
	Ver uint64
	// Lease is an until-cycle. On a data event it is the absolute expiry
	// the value was readable until, for reads and writes performed under
	// an ACC lease; zero marks a strict (invalidation-coherent) agent,
	// which must always observe the latest globally-ordered write. On a
	// protocol event it is the granted expiry, the forwarded lease, or the
	// GTIME a stall or parked response waits for.
	Lease uint64
	// PA is the physical line address an L1XFetch fetches.
	PA uint64
	// Msg names the message type of an L0XMiss, WLockStall, HostFwdIn or
	// DirForward; a FwdParked sets it to "inv" for a parked invalidation.
	Msg string
	// Epoch is the synchronization epoch (phase index) of a Phase mark.
	// Components leave it zero on other kinds; the litmus recorder stamps
	// it on the events it keeps.
	Epoch int32
	// Peer is the AXC (tile events) or host agent (Relinquish, directory
	// events) at the other end of a protocol transition; Requester is the
	// agent a DirForward acts for.
	Peer, Requester int32
	Kind            Kind
	// Phys marks a data event's Addr as a physical address (host-side
	// agents observe post-translation addresses).
	Phys bool
	// Delta marks a scratchpad store to a write-allocated line whose base
	// version is unknown; Ver is a within-window delta, not absolute.
	Delta bool
	// Dirty is a Relinquish's dirty bit.
	Dirty bool
}

// String renders the event as one trace line: cycle, agent, kind, address
// and the kind's context.
func (e Event) String() string {
	s := fmt.Sprintf("%8d  %-8s %-16s %#x", e.Cycle, e.Agent, e.Kind, e.Addr)
	if d := e.detail(); d != "" {
		s += "  " + d
	}
	return s
}

// detail formats the kind's context fields.
func (e Event) detail() string {
	switch e.Kind {
	case Load, Store, Fill:
		if e.Lease > 0 {
			return fmt.Sprintf("v%d until %d", e.Ver, e.Lease)
		}
		return fmt.Sprintf("v%d", e.Ver)
	case L0XMiss, HostFwdIn:
		return e.Msg
	case LeaseGrant, EpochGrant, GTimeStall:
		return fmt.Sprintf("axc%d until %d", e.Peer, e.Lease)
	case DxForward:
		return fmt.Sprintf("to axc%d lease=%d", e.Peer, e.Lease)
	case WLockStall:
		return fmt.Sprintf("axc%d %s", e.Peer, e.Msg)
	case L1XFetch:
		return fmt.Sprintf("pa=%#x", e.PA)
	case FwdParked:
		if e.Msg != "" {
			return fmt.Sprintf("%s until GTIME %d", e.Msg, e.Lease)
		}
		return fmt.Sprintf("until GTIME %d", e.Lease)
	case Relinquish:
		return fmt.Sprintf("to agent%d dirty=%v", e.Peer, e.Dirty)
	case DirRead, DirWrite, DirPut, DirDMARead, DirDMAWrite:
		return fmt.Sprintf("from agent%d", e.Peer)
	case DirForward:
		return fmt.Sprintf("%s to agent%d for agent%d", e.Msg, e.Peer, e.Requester)
	case Phase:
		return fmt.Sprintf("epoch %d", e.Epoch)
	case SelfInvalidate, SelfDowngrade, Writeback:
		// No context beyond the line.
	}
	return ""
}

// Observer receives the event stream. Implementations must be cheap:
// Record runs on cache hit paths.
type Observer interface {
	Record(e Event)
}

// Writer streams formatted events to an io.Writer, optionally stopping
// after Max events (0 = unlimited).
type Writer struct {
	W   io.Writer
	Max int
	n   int
}

// Record implements Observer.
func (t *Writer) Record(e Event) {
	if t.Max > 0 && t.n >= t.Max {
		return
	}
	t.n++
	fmt.Fprintln(t.W, e.String())
	if t.Max > 0 && t.n == t.Max {
		fmt.Fprintf(t.W, "... (trace capped at %d events)\n", t.Max)
	}
}

// Collector accumulates events in memory, optionally bounded by Max.
type Collector struct {
	Max    int
	Events []Event
}

// Record implements Observer.
func (c *Collector) Record(e Event) {
	if c.Max > 0 && len(c.Events) >= c.Max {
		return
	}
	c.Events = append(c.Events, e)
}

// Count returns how many events of kind k were collected.
func (c *Collector) Count(k Kind) int {
	n := 0
	for _, e := range c.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Filter returns the collected events of kind k.
func (c *Collector) Filter(k Kind) []Event {
	var out []Event
	for _, e := range c.Events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}
