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
// Line storage is way-major: one chunk holds one way of a group of
// chunkSets consecutive sets, and is allocated when Victim first picks
// that way for a set of the group. A run that touches a few thousand
// lines of the 4 MB LLC allocates only the chunks holding them: an LLC
// set holding one line costs one 64-byte line, not its sixteen ways.
//
// Victim always picks the lowest invalid way, so a group's chunks are
// allocated in way order and a valid line never sits behind an
// unallocated chunk: lookups stop at a set's first unallocated way.
// Lookups never allocate. Lines never move once allocated, so *Line
// pointers stay valid for the array's lifetime.
type Array struct {
	params    Params
	sets      int
	ways      int
	lineShift uint
	// chunks holds way w of set group g at g*ways+w: that way's line for
	// each of the group's sets (chunkSets of them, fewer in a short last
	// group), nil until filled.
	chunks [][]Line
	stamp  uint64
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
		chunks:    make([][]Line, (sets+chunkSets-1)/chunkSets*p.Ways),
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

// group returns the index in chunks of set s's way 0, and s's line index
// within each of its group's chunks.
func (a *Array) group(s int) (base, off int) {
	return int(uint(s)/chunkSets) * a.ways, int(uint(s) % chunkSets)
}

// chunkLen returns how many lines chunks[k] holds: chunkSets, or the sets
// that remain for a chunk of a short last group.
func (a *Array) chunkLen(k int) int {
	return min(chunkSets, a.sets-k/a.ways*chunkSets)
}

// chunk returns chunks[k], allocating it on first use.
func (a *Array) chunk(k int) []Line {
	if a.chunks[k] == nil {
		a.chunks[k] = make([]Line, a.chunkLen(k))
	}
	return a.chunks[k]
}

// Lookup returns the line holding addr (any PID) and refreshes its LRU
// stamp, or nil on miss.
func (a *Array) Lookup(addr uint64) *Line {
	return a.lookup(addr, 0, false, true)
}

// LookupPID is Lookup restricted to lines tagged with pid. Accelerator-tile
// caches are PID-tagged so functions from different processes can coexist.
func (a *Array) LookupPID(addr uint64, pid mem.PID) *Line {
	return a.lookup(addr, pid, true, true)
}

// Peek is Lookup without the LRU update (used by snoops and statistics).
func (a *Array) Peek(addr uint64) *Line {
	return a.lookup(addr, 0, false, false)
}

// lookup returns the valid line holding addr (tagged pid when checkPID),
// refreshing its LRU stamp when touch is set. It walks addr's set from
// way 0 and stops at the first unallocated way.
func (a *Array) lookup(addr uint64, pid mem.PID, checkPID, touch bool) *Line {
	want := a.align(addr)
	base, off := a.group(a.SetIndex(addr))
	for _, c := range a.chunks[base : base+a.ways] {
		if c == nil {
			return nil
		}
		l := &c[off]
		if l.Valid && l.Addr == want && (!checkPID || l.PID == pid) {
			if touch {
				a.stamp++
				l.lru = a.stamp
			}
			return l
		}
	}
	return nil
}

// Victim returns the line to fill for addr: the lowest invalid way if one
// exists, otherwise the least-recently-used line in the set. The caller
// inspects Valid/Dirty to decide whether an eviction (writeback) is needed,
// then overwrites the fields. Victim allocates the chunk of the way it
// picks if that way has never been picked in addr's set group.
func (a *Array) Victim(addr uint64) *Line {
	base, off := a.group(a.SetIndex(addr))
	var victim *Line
	for w := range a.ways {
		l := &a.chunk(base + w)[off]
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
	for base := 0; base < len(a.chunks); base += a.ways {
		ways := a.chunks[base : base+a.ways]
		for off := range a.chunkLen(base) {
			for _, c := range ways {
				if c != nil {
					fn(&c[off])
				}
			}
		}
	}
}

// NumLines returns sets*ways, the bound for line-slot indices.
func (a *Array) NumLines() int { return a.sets * a.ways }

// LineAt returns the line at slot i (set*ways + way, as SlotOf numbers
// them), allocating its chunk if that way has never been filled in its
// set group. Such a chunk holds only invalid lines, so lookups that stop
// before it miss nothing.
func (a *Array) LineAt(i int) *Line {
	base, off := a.group(i / a.ways)
	return &a.chunk(base + i%a.ways)[off]
}

// SlotOf returns the dense (set, way) slot index of l, which must be a
// line of addr's set (as returned by Lookup/Victim/Peek for addr).
// Controllers use the slot to key per-line side state — stall lists,
// holder tags — in flat arrays parallel to the tag array, instead of
// address-keyed maps.
func (a *Array) SlotOf(addr uint64, l *Line) int {
	s := a.SetIndex(addr)
	base, off := a.group(s)
	for w, c := range a.chunks[base : base+a.ways] {
		if c != nil && &c[off] == l {
			return s*a.ways + w
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
