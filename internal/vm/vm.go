// Package vm implements the Fusion address-translation machinery
// (Section 3.2, "Virtual Memory", and the synonym appendix).
//
// The accelerator tile operates entirely on PID-tagged virtual addresses;
// the host hierarchy on physical addresses. Translation happens in exactly
// two places:
//
//   - AX-TLB: on the shared L1X *miss* path, translating the virtual line
//     address so the request can index the host L2 and join MESI. Keeping
//     the TLB off the load/store critical path is one of the paper's energy
//     arguments (Lesson 8).
//   - AX-RMAP: a per-tile reverse map from physical line address to the L1X
//     line, consulted when the host directory forwards a MESI request into
//     the tile. The directory's sharer list filters, so only lines actually
//     cached in the tile generate lookups (Table 6 shows the counts stay
//     small).
package vm

import (
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/stats"
)

// PageTable is a demand-allocating forward map (PID, virtual page) ->
// physical frame, with the inverse kept for reverse translation.
type PageTable struct {
	nextFrame uint64
	forward   map[uint64]uint64 // key: pid<<48 | vpn
	reverse   map[uint64]uint64 // pfn -> key
}

// NewPageTable returns an empty page table. Frame 0 is reserved so that a
// zero PAddr can never alias a real translation.
func NewPageTable() *PageTable {
	return &PageTable{
		nextFrame: 1,
		forward:   make(map[uint64]uint64),
		reverse:   make(map[uint64]uint64),
	}
}

func key(pid mem.PID, vpn uint64) uint64 { return uint64(pid)<<48 | vpn }

// Translate maps (pid, va) to a physical address, allocating a frame on
// first touch (there is no swapping in the simulator).
func (pt *PageTable) Translate(pid mem.PID, va mem.VAddr) mem.PAddr {
	k := key(pid, va.PageNumber())
	pfn, ok := pt.forward[k]
	if !ok {
		pfn = pt.nextFrame
		pt.nextFrame++
		pt.forward[k] = pfn
		pt.reverse[pfn] = k
	}
	return mem.PAddr(pfn<<mem.PageShift | va.PageOffset())
}

// Reverse maps a physical address back to (pid, va). ok is false for frames
// never handed out.
func (pt *PageTable) Reverse(pa mem.PAddr) (mem.PID, mem.VAddr, bool) {
	k, ok := pt.reverse[pa.PageNumber()]
	if !ok {
		return 0, 0, false
	}
	pid := mem.PID(k >> 48)
	vpn := k & (1<<48 - 1)
	return pid, mem.VAddr(vpn<<mem.PageShift | pa.PageOffset()), true
}

// Pages returns the number of mapped pages.
func (pt *PageTable) Pages() int { return len(pt.forward) }

// tlbEntry is one fully-associative TLB entry.
type tlbEntry struct {
	valid bool
	pid   mem.PID
	vpn   uint64
	pfn   uint64
	lru   uint64
}

// TLB is the AX-TLB: fully associative, LRU, sitting on the L1X miss path.
type TLB struct {
	entries []tlbEntry
	stamp   uint64
	pt      *PageTable
	// WalkLatency is the extra cycles a TLB miss adds (page-table walk).
	WalkLatency uint64

	meter *energy.Meter
	model energy.Model
	name  string

	cLookups *stats.Counter
	cHits    *stats.Counter
	cMisses  *stats.Counter
}

// NewTLB builds a TLB with the given entry count over the page table.
func NewTLB(name string, entries int, walkLatency uint64, pt *PageTable,
	model energy.Model, meter *energy.Meter, st *stats.Set) *TLB {
	return &TLB{
		entries:     make([]tlbEntry, entries),
		pt:          pt,
		WalkLatency: walkLatency,
		meter:       meter,
		model:       model,
		name:        name,
		cLookups:    st.Counter(name + ".lookups"),
		cHits:       st.Counter(name + ".hits"),
		cMisses:     st.Counter(name + ".misses"),
	}
}

// Lookups counts the Translate calls so far.
func (t *TLB) Lookups() int64 { return t.cLookups.Value() }

// Translate returns the physical address for (pid, va) and the cycles the
// translation cost (0 on a TLB hit, WalkLatency on a miss). Every call is
// one AX-TLB lookup for Table 6 accounting.
func (t *TLB) Translate(pid mem.PID, va mem.VAddr) (mem.PAddr, uint64) {
	t.cLookups.Inc()
	if t.meter != nil {
		t.meter.Add(energy.CatVM, t.model.TLBLookup)
	}
	vpn := va.PageNumber()
	t.stamp++
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.pid == pid && e.vpn == vpn {
			e.lru = t.stamp
			t.cHits.Inc()
			return mem.PAddr(e.pfn<<mem.PageShift | va.PageOffset()), 0
		}
	}
	// Miss: walk, then fill the LRU entry.
	t.cMisses.Inc()
	pa := t.pt.Translate(pid, va)
	victim := &t.entries[0]
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = e
			break
		}
		if e.lru < victim.lru {
			victim = e
		}
	}
	*victim = tlbEntry{valid: true, pid: pid, vpn: vpn, pfn: pa.PageNumber(), lru: t.stamp}
	return pa, t.WalkLatency
}

// Pointer locates a line inside the shared L1X (way and set), as carried in
// the paper's coherence messages so data responses can update the correct
// virtually-indexed entry.
type Pointer struct {
	Set, Way int
	VAddr    mem.VAddr
	PID      mem.PID
}

// RMAP is the AX-RMAP: physical line address -> L1X pointer.
type RMAP struct {
	m     map[mem.PAddr]Pointer
	meter *energy.Meter
	model energy.Model
	name  string

	cSynEvict *stats.Counter
	cLookups  *stats.Counter
}

// NewRMAP builds an empty reverse map.
func NewRMAP(name string, model energy.Model, meter *energy.Meter, st *stats.Set) *RMAP {
	return &RMAP{m: make(map[mem.PAddr]Pointer), meter: meter, model: model, name: name,
		cSynEvict: st.Counter(name + ".synonym_evictions"),
		cLookups:  st.Counter(name + ".lookups")}
}

// Insert records that physical line pa is cached at ptr. If another virtual
// address already maps pa (a synonym), the previous pointer is returned with
// dup=true and replaced: per the appendix, only one synonym may live in the
// tile, and the caller must evict the duplicate.
func (r *RMAP) Insert(pa mem.PAddr, ptr Pointer) (prev Pointer, dup bool) {
	pa = pa.LineAddr()
	if old, ok := r.m[pa]; ok && old.VAddr.LineAddr() != ptr.VAddr.LineAddr() {
		r.m[pa] = ptr
		r.cSynEvict.Inc()
		return old, true
	}
	r.m[pa] = ptr
	return Pointer{}, false
}

// Lookup finds the L1X pointer for physical line pa. Each call is one
// AX-RMAP lookup (Table 6).
func (r *RMAP) Lookup(pa mem.PAddr) (Pointer, bool) {
	r.cLookups.Inc()
	if r.meter != nil {
		r.meter.Add(energy.CatVM, r.model.RMAPLookup)
	}
	p, ok := r.m[pa.LineAddr()]
	return p, ok
}

// Lookupless is Lookup without statistics or energy accounting, for
// invariant checkers and tests that must not perturb measurements, and
// for the L1X's synonym check at install, which rides on the insert.
func (r *RMAP) Lookupless(pa mem.PAddr) (Pointer, bool) {
	p, ok := r.m[pa.LineAddr()]
	return p, ok
}

// Remove drops the mapping for pa (line eviction from the L1X).
func (r *RMAP) Remove(pa mem.PAddr) { delete(r.m, pa.LineAddr()) }

// Len returns the number of tracked lines.
func (r *RMAP) Len() int { return len(r.m) }

// Lookups counts the Lookup calls so far.
func (r *RMAP) Lookups() int64 { return r.cLookups.Value() }
