// Package cache provides the generic set-associative storage used by every
// cache in the simulated hierarchy: the host L1D, the shared L2/LLC banks,
// and the accelerator tile's private L0X and shared L1X. (The scratchpads
// are not caches: they keep their resident lines in a flat.Map.)
//
// A Line carries the union of the metadata the different protocols need:
// MESI state bits for host-side caches, and the ACC protocol's lease
// timestamps (LTIME/GTIME, Section 3.2 of the paper) for accelerator-tile
// caches. Unused fields stay zero; keeping one Line type avoids a parallel
// generic hierarchy for what is fundamentally the same SRAM array.
package cache

import (
	"fmt"

	"fusion/internal/mem"
	"fusion/internal/sim"
)

// State is a protocol-defined line state. The zero value is Invalid for
// every protocol in this simulator.
type State uint8

// MESI states (host L1, L2 directory-side copies) and the MEI subset the
// shared L1X exposes to the host protocol (Section 3.2: "the shared L1X
// states map to a 3-state MEI protocol").
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one cache line's tag-array entry. The flag and tag fields lead
// so a Line fills exactly one 64-byte host cache line.
type Line struct {
	Valid bool
	Dirty bool
	WLock bool // L1X: a write epoch is outstanding; readers/writers stall
	State State
	PID   mem.PID // process tag (accelerator tile only, Section 3.2)
	Addr  uint64  // line-aligned address (virtual in the tile, physical host-side)

	// ACC protocol timestamps (absolute cycles).
	LTime uint64 // L0X: read-lease expiry (LTIME)
	WTime uint64 // L0X: write-epoch expiry; 0 when no write epoch held
	GTime uint64 // L1X: latest lease granted to any L0X (GTIME)

	// PAddr is the translated physical address, recorded at the L1X on fill
	// so writebacks and evictions do not need a second AX-TLB lookup.
	PAddr mem.PAddr

	// Ver is the modeled payload: a per-line version number bumped on every
	// store. The simulator does not track real bytes; version monotonicity
	// lets tests detect lost or stale data anywhere in the hierarchy.
	Ver uint64

	lru uint64 // last-touch stamp for LRU replacement
}

// Params describes a cache geometry.
type Params struct {
	SizeBytes int
	Ways      int
	LineBytes int
}

// Sets returns the number of sets implied by the geometry.
func (p Params) Sets() int {
	s := p.SizeBytes / (p.Ways * p.LineBytes)
	if s < 1 {
		return 1
	}
	return s
}

// chunkSets is how many sets share one allocation of line storage.
const chunkSets = 64

// Array is a set-associative tag/data array with true-LRU replacement.
//
// Line storage is allocated one chunk of chunkSets sets at a time, when
// Victim first picks a line in the chunk: a run that touches a few
// thousand lines of the 4 MB LLC allocates only the chunks holding them.
// Lookups never allocate; an unallocated set simply holds no valid line.
type Array struct {
	params    Params
	sets      int
	ways      int
	lineShift uint
	chunks    [][]Line // chunkSets*ways lines each, row-major by set; nil until filled
	stamp     uint64
}

// NewArray builds an array. SizeBytes must be a multiple of Ways*LineBytes
// and LineBytes a power of two.
func NewArray(p Params) *Array {
	if p.LineBytes == 0 || p.LineBytes&(p.LineBytes-1) != 0 {
		sim.Failf("cache", 0, "", "line size %d not a power of two", p.LineBytes)
	}
	sets := p.Sets()
	if sets*p.Ways*p.LineBytes != p.SizeBytes {
		sim.Failf("cache", 0, "", "size %d not divisible into %d ways of %d-byte lines",
			p.SizeBytes, p.Ways, p.LineBytes)
	}
	shift := uint(0)
	for 1<<shift < p.LineBytes {
		shift++
	}
	return &Array{
		params:    p,
		sets:      sets,
		ways:      p.Ways,
		lineShift: shift,
		chunks:    make([][]Line, (sets+chunkSets-1)/chunkSets),
	}
}

// Params returns the geometry the array was built with.
func (a *Array) Params() Params { return a.params }

// SetIndex returns the set index for addr.
func (a *Array) SetIndex(addr uint64) int {
	return int((addr >> a.lineShift) % uint64(a.sets))
}

// align clears the line-offset bits.
func (a *Array) align(addr uint64) uint64 {
	return addr &^ (uint64(a.params.LineBytes) - 1)
}

// set returns the ways of addr's set, or nil if its chunk is unallocated.
func (a *Array) set(addr uint64) []Line {
	return a.setAt(a.SetIndex(addr))
}

// setAt returns the ways of set s, or nil if its chunk is unallocated.
func (a *Array) setAt(s int) []Line {
	c := a.chunks[uint(s)/chunkSets]
	if c == nil {
		return nil
	}
	off := int(uint(s)%chunkSets) * a.ways
	return c[off : off+a.ways]
}

// chunk returns chunk k's lines, allocating them on first use. The last
// chunk holds only the sets that remain.
func (a *Array) chunk(k int) []Line {
	if a.chunks[k] == nil {
		a.chunks[k] = make([]Line, min(chunkSets, a.sets-k*chunkSets)*a.ways)
	}
	return a.chunks[k]
}

// Lookup returns the line holding addr (any PID) and refreshes its LRU
// stamp, or nil on miss.
func (a *Array) Lookup(addr uint64) *Line {
	return a.lookup(addr, 0, false)
}

// LookupPID is Lookup restricted to lines tagged with pid. Accelerator-tile
// caches are PID-tagged so functions from different processes can coexist.
func (a *Array) LookupPID(addr uint64, pid mem.PID) *Line {
	return a.lookup(addr, pid, true)
}

func (a *Array) lookup(addr uint64, pid mem.PID, checkPID bool) *Line {
	want := a.align(addr)
	set := a.set(addr)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Addr == want && (!checkPID || l.PID == pid) {
			a.stamp++
			l.lru = a.stamp
			return l
		}
	}
	return nil
}

// Peek is Lookup without the LRU update (used by snoops and statistics).
func (a *Array) Peek(addr uint64) *Line {
	want := a.align(addr)
	set := a.set(addr)
	for i := range set {
		l := &set[i]
		if l.Valid && l.Addr == want {
			return l
		}
	}
	return nil
}

// Victim returns the line to fill for addr: an invalid way if one exists,
// otherwise the least-recently-used line in the set. The caller inspects
// Valid/Dirty to decide whether an eviction (writeback) is needed, then
// overwrites the fields. Victim allocates the chunk of addr's set if no
// line in it has been picked before.
func (a *Array) Victim(addr uint64) *Line {
	s := a.SetIndex(addr)
	off := s % chunkSets * a.ways
	set := a.chunk(s / chunkSets)[off : off+a.ways]
	var victim *Line
	for i := range set {
		l := &set[i]
		if !l.Valid {
			return l
		}
		if victim == nil || l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// VictimUnpinned is Victim for a controller that must not displace some
// lines — those with an outstanding miss, a live lease or an open write
// epoch. It returns an invalid way, or else the least-recently-used line
// for which pinned reports false. Each pinned candidate is rotated to
// most-recently-used with Touch before the next try, at most once per
// way, so the walk leaves the LRU stamps as that many Touch calls would.
// It returns nil when every way is pinned.
func (a *Array) VictimUnpinned(addr uint64, pinned func(*Line) bool) *Line {
	for range a.ways {
		v := a.Victim(addr)
		if !v.Valid || !pinned(v) {
			return v
		}
		a.Touch(v)
	}
	return nil
}

// Fill installs addr into line (typically a Victim result), resetting all
// metadata and refreshing LRU.
func (a *Array) Fill(l *Line, addr uint64, pid mem.PID) {
	a.stamp++
	*l = Line{Valid: true, Addr: a.align(addr), PID: pid, lru: a.stamp}
}

// Touch refreshes the LRU stamp of l.
func (a *Array) Touch(l *Line) {
	a.stamp++
	l.lru = a.stamp
}

// ForEach visits the lines of every allocated chunk, valid or not, in
// deterministic (set, way) order. The visitor may mutate lines. Lines of
// unallocated chunks are invalid and are not visited, so a visitor must
// ignore invalid lines: every caller returns early on !Valid.
func (a *Array) ForEach(fn func(*Line)) {
	for _, c := range a.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

// NumLines returns sets*ways, the bound for line-slot indices.
func (a *Array) NumLines() int { return a.sets * a.ways }

// LineAt returns the line at slot i (row-major by set, as SlotOf numbers
// them), allocating its chunk if no line in it has been filled.
func (a *Array) LineAt(i int) *Line {
	n := chunkSets * a.ways
	return &a.chunk(i / n)[i%n]
}

// SlotOf returns the dense (set, way) slot index of l, which must be a
// line of addr's set (as returned by Lookup/Victim/Peek for addr).
// Controllers use the slot to key per-line side state — stall lists,
// holder tags — in flat arrays parallel to the tag array, instead of
// address-keyed maps.
func (a *Array) SlotOf(addr uint64, l *Line) int {
	s := a.SetIndex(addr)
	set := a.setAt(s)
	for i := range set {
		if &set[i] == l {
			return s*a.ways + i
		}
	}
	sim.Failf("cache", 0, "", "SlotOf: line %#x not in set of addr %#x", l.Addr, addr)
	return -1
}

// CountValid returns the number of valid lines.
func (a *Array) CountValid() int {
	n := 0
	a.ForEach(func(l *Line) {
		if l.Valid {
			n++
		}
	})
	return n
}

// InvalidateAll clears every line, keeping the allocated chunks.
func (a *Array) InvalidateAll() {
	for _, c := range a.chunks {
		clear(c)
	}
}
