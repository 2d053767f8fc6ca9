package cache

import (
	"math/bits"
	"sort"

	"fusion/internal/sim"
)

// MSHR models a miss-status holding register file: one entry per outstanding
// line-granularity miss. Every cache controller in the simulator (host L1,
// L1X, L0X) allocates from one of these; a full MSHR back-pressures the
// requester, which is how the accelerator MLP limits of Table 1 manifest in
// the memory system.
//
// The file is a dense register bank, as in hardware: a uint64 occupancy
// bitmap plus flat address/stamp arrays of capacity entries, indexed by
// slot. Lookups walk the occupancy word with bits.TrailingZeros64 — at most
// capacity compares, no hashing, no pointers. The slot number is stable for
// the lifetime of the miss, so controllers keep their per-miss records by
// value in a slot-indexed slice instead of a map (see acc.L0X, acc.L1X,
// mesi.Client). Every controller builds one file per run, so the arrays
// are sized to its capacity rather than to the 64-slot limit.
type MSHR struct {
	capacity int
	count    int
	occ      uint64   // bit s set: slot s holds an outstanding miss
	addrs    []uint64 // by slot
	stamps   []uint64 // by slot: allocation order, for deterministic iteration
	clock    uint64
}

// NewMSHR returns an MSHR file with the given number of entries (at most
// 64: one occupancy word covers every configuration in the paper).
func NewMSHR(capacity int) *MSHR {
	if capacity < 1 || capacity > 64 {
		sim.Failf("cache", 0, "", "MSHR capacity %d out of range [1,64]", capacity)
	}
	regs := make([]uint64, 2*capacity)
	return &MSHR{capacity: capacity, addrs: regs[:capacity:capacity], stamps: regs[capacity:]}
}

// Slot returns the slot holding addr, or -1.
func (m *MSHR) Slot(addr uint64) int {
	for w := m.occ; w != 0; w &= w - 1 {
		s := bits.TrailingZeros64(w)
		if m.addrs[s] == addr {
			return s
		}
	}
	return -1
}

// Allocate returns the slot for addr: the existing slot on a secondary
// miss, a fresh one otherwise, or -1 if the file is full and addr is not
// present.
func (m *MSHR) Allocate(addr uint64) int {
	if s := m.Slot(addr); s >= 0 {
		return s
	}
	if m.count >= m.capacity {
		return -1
	}
	s := bits.TrailingZeros64(^m.occ) // capacity<=64 keeps this in range
	m.occ |= 1 << s
	m.addrs[s] = addr
	m.clock++
	m.stamps[s] = m.clock
	m.count++
	return s
}

// Free releases the entry for addr and returns the slot it held, or -1 if
// addr was not outstanding.
func (m *MSHR) Free(addr uint64) int {
	s := m.Slot(addr)
	if s < 0 {
		return -1
	}
	m.occ &^= 1 << s
	m.count--
	return s
}

// Full reports whether a fresh allocation would fail.
func (m *MSHR) Full() bool { return m.count >= m.capacity }

// Len returns the number of outstanding entries.
func (m *MSHR) Len() int { return m.count }

// Occupied returns the occupancy bitmap; callers walk it with
// bits.TrailingZeros64 and index their slot-keyed state directly.
func (m *MSHR) Occupied() uint64 { return m.occ }

// AddrAt returns the line address held by an occupied slot.
func (m *MSHR) AddrAt(slot int) uint64 { return m.addrs[slot] }

// Outstanding returns the outstanding line addresses in allocation order.
func (m *MSHR) Outstanding() []uint64 {
	slots := make([]int, 0, m.count)
	for w := m.occ; w != 0; w &= w - 1 {
		slots = append(slots, bits.TrailingZeros64(w))
	}
	sort.Slice(slots, func(i, j int) bool { return m.stamps[slots[i]] < m.stamps[slots[j]] })
	out := make([]uint64, len(slots))
	for i, s := range slots {
		out[i] = m.addrs[s]
	}
	return out
}
