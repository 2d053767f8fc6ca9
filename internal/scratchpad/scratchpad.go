// Package scratchpad implements the SCRATCH baseline of Section 2.1: one
// explicitly-managed RAM per accelerator, filled and drained by an oracle
// coherent DMA engine that resides at the host LLC.
//
// The oracle follows the paper's methodology exactly (Section 4, "systems
// compared"): DMA operations are auto-generated from the dynamic trace —
// only lines that will be read are pushed in, only dirty lines are drained
// out — and issuing a DMA request is free; the transfers themselves pay LLC
// access energy, link energy, and latency, and serialize on the critical
// path between execution windows. Working sets larger than the scratchpad
// split the invocation into windows with a DMA round trip per window.
package scratchpad

import (
	"slices"

	"fusion/internal/energy"
	"fusion/internal/flat"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
)

// Config sizes a scratchpad.
type Config struct {
	SizeBytes int // Table 2: 4 or 8 KB
	AccessLat uint64
	AccessPJ  float64
}

// padLine tracks one resident line's modeled payload. Lines DMA'd in know
// their base version; write-allocated lines (stored without a prior DMA-in)
// do not, so their writeback carries a delta the LLC accumulates.
type padLine struct {
	base      uint64
	delta     uint64
	baseKnown bool
	dirty     bool
}

// Mutations arm deliberate, test-only scratchpad bugs for the litmus
// mutation-kill validator (see internal/litmus). All fields must be false
// in real runs.
type Mutations struct {
	// StaleFill installs DMA'd-in lines one version behind the coherent
	// data the DMA delivered — a torn oracle transfer. The value checker
	// flags the fill itself and every load served from it.
	StaleFill bool
}

// Scratchpad is a software-managed RAM implementing accel.MemPort. Every
// access hits: the oracle DMA guarantees residency.
type Scratchpad struct {
	name  string
	cfg   Config
	eng   *sim.Engine
	lines *flat.Map[padLine]
	addrs []uint64 // DirtyLines' sort buffer
	meter *energy.Meter
	obsv  obs.Observer
	mut   *Mutations

	cAccesses *stats.Counter
}

// SetMutations arms test-only scratchpad bugs (nil disarms).
func (s *Scratchpad) SetMutations(m *Mutations) { s.mut = m }

// SetObserver attaches an observer (nil disables observation). The
// scratchpad is a strict agent within a window: fills must install the
// latest globally-ordered version, and loads must observe it.
func (s *Scratchpad) SetObserver(o obs.Observer) { s.obsv = o }

// New builds an empty scratchpad.
func New(eng *sim.Engine, name string, cfg Config,
	meter *energy.Meter, st *stats.Set) *Scratchpad {
	return &Scratchpad{
		name:      name,
		cfg:       cfg,
		eng:       eng,
		lines:     flat.New[padLine](cfg.SizeBytes / mem.LineBytes),
		meter:     meter,
		cAccesses: st.Counter(name + ".accesses"),
	}
}

// CapacityLines returns how many lines fit.
func (s *Scratchpad) CapacityLines() int { return s.cfg.SizeBytes / mem.LineBytes }

// Fill installs a line with version ver (DMA-in or a zero-fill for
// write-only lines).
func (s *Scratchpad) Fill(va mem.VAddr, ver uint64) {
	a := uint64(va.LineAddr())
	if s.lines.Len() >= s.CapacityLines() && s.lines.Ptr(a) == nil {
		sim.Failf(s.name, s.eng.Now(), "",
			"overfilled beyond %d lines", s.CapacityLines())
	}
	if s.mut != nil && s.mut.StaleFill && ver > 0 {
		ver--
	}
	s.lines.Put(a, padLine{base: ver, baseKnown: true})
	if s.obsv != nil {
		s.obsv.Record(obs.Event{Cycle: s.eng.Now(), Agent: s.name,
			Addr: a, Ver: ver, Kind: obs.Fill})
	}
}

// DMADone makes the scratchpad the sink of its DMA-in: a read queued with
// tag va fills va with the version it delivered.
func (s *Scratchpad) DMADone(va, ver uint64) { s.Fill(mem.VAddr(va), ver) }

// Access implements accel.MemPort. A miss is an oracle violation and panics.
func (s *Scratchpad) Access(kind mem.AccessKind, va mem.VAddr, done func(now uint64)) bool {
	if lat, _ := s.AccessTimed(kind, va, done); lat > 0 {
		s.eng.Schedule(lat, done)
	}
	return true
}

// AccessTimed implements accel.TimedPort: every access completes after the
// access latency, which it reports instead of scheduling done. A zero
// latency cannot be reported (0 means done fires), so such an access
// schedules done itself.
func (s *Scratchpad) AccessTimed(kind mem.AccessKind, va mem.VAddr, done func(now uint64)) (uint64, bool) {
	a := uint64(va.LineAddr())
	l := s.lines.Ptr(a)
	if l == nil {
		if kind == mem.Store {
			// Write-allocate: a fully-written line needs no DMA-in, but its
			// base version is unknown (writeback will carry a delta).
			if s.lines.Len() >= s.CapacityLines() {
				sim.Failf(s.name, s.eng.Now(), "",
					"overfilled beyond %d lines", s.CapacityLines())
			}
			l = s.lines.Put(a, padLine{})
		} else {
			sim.Failf(s.name, s.eng.Now(), "",
				"load from line %#x not DMA'd in (oracle violation)", a)
		}
	}
	if s.meter != nil {
		s.meter.Add(energy.CatScratch, s.cfg.AccessPJ)
	}
	s.cAccesses.Inc()
	if kind == mem.Store {
		l.delta++
		l.dirty = true
	}
	if s.obsv != nil {
		k := obs.Load
		if kind == mem.Store {
			k = obs.Store
		}
		s.obsv.Record(obs.Event{Cycle: s.eng.Now(), Agent: s.name,
			Addr: uint64(va), Ver: l.base + l.delta, Kind: k, Delta: !l.baseKnown})
	}
	if s.cfg.AccessLat == 0 {
		s.eng.Schedule(0, done)
	}
	return s.cfg.AccessLat, true
}

// Version returns the current version of a resident line (base + stores).
func (s *Scratchpad) Version(va mem.VAddr) (uint64, bool) {
	l := s.lines.Ptr(uint64(va.LineAddr()))
	if l == nil {
		return 0, false
	}
	return l.base + l.delta, true
}

// DirtyLines appends the resident dirty lines to out in deterministic
// order (sorted by address) with their writeback payloads, and returns the
// extended slice. It sorts in a buffer the scratchpad keeps, so a caller
// that reuses out allocates nothing once both have grown.
func (s *Scratchpad) DirtyLines(out []DirtyLine) []DirtyLine {
	s.addrs = s.addrs[:0]
	s.lines.ForEach(func(a uint64, _ *padLine) { s.addrs = append(s.addrs, a) })
	slices.Sort(s.addrs)
	for _, a := range s.addrs {
		l := s.lines.Ptr(a)
		if !l.dirty {
			continue
		}
		dl := DirtyLine{Addr: mem.VAddr(a)}
		if l.baseKnown {
			dl.Ver = l.base + l.delta
		} else {
			dl.Ver = l.delta
			dl.Delta = true
		}
		out = append(out, dl)
	}
	return out
}

// DirtyLine is one line to drain: an absolute version when the base was
// DMA'd in, otherwise a delta to accumulate at the LLC.
type DirtyLine struct {
	Addr  mem.VAddr
	Ver   uint64
	Delta bool
}

// Clear empties the scratchpad (window boundary, after the drain): a
// bitmap wipe, not a reallocation.
func (s *Scratchpad) Clear() {
	s.lines.Clear()
}

// Resident returns the number of resident lines.
func (s *Scratchpad) Resident() int { return s.lines.Len() }

// Window is one execution window of an invocation: the iterations that run
// plus the oracle-computed transfer sets.
type Window struct {
	Start, End int // iteration index range [Start, End)
	// ReadSet are the lines the window loads, which the DMA must push in
	// before the window runs. A line that is both stored and loaded in the
	// window is included: the accelerator pipeline may issue the load
	// before the earlier iteration's store retires, so the line must be
	// resident up front. Store-only lines are write-allocated for free.
	ReadSet []mem.VAddr
	// WriteSet are the lines left dirty at window end, drained by DMA.
	WriteSet []mem.VAddr
}

// Per-line planner flags. A line is in the window while it has an entry in
// the planner's table; the flags say what the window does with it.
const (
	planLoaded  uint8 = 1 << iota // the window must DMA the line in
	planWritten                   // the window leaves the line dirty
)

// Windows segments an invocation so each window's footprint fits capacity,
// replicating the paper's "windows of execution with DMA operations
// required for each window".
//
// live reports whether a line holds data produced earlier in the program
// (preloaded inputs or prior phases' stores). A stored-but-never-loaded
// line is write-allocated for free only when it is NOT live: partially
// overwriting live data without fetching it first would destroy the
// untouched part of the line. live may be nil (nothing live).
//
// The planner keeps one flag table and one first-touch order for the whole
// call and wipes both per window, so its cost follows the lines the
// invocation touches rather than the number of windows.
func Windows(inv *trace.Invocation, capacityLines int, live map[mem.VAddr]bool) []Window {
	var out []Window
	lines := flat.New[uint8](capacityLines)
	var order []mem.VAddr
	i := 0
	for i < len(inv.Iterations) {
		lines.Clear()
		order = order[:0]
		j := i
		for ; j < len(inv.Iterations); j++ {
			it := &inv.Iterations[j]
			// Tentatively measure the footprint with this iteration added.
			add := 0
			for _, a := range it.Loads {
				if lines.Ptr(uint64(a.LineAddr())) == nil {
					add++
				}
			}
			for _, a := range it.Stores {
				if lines.Ptr(uint64(a.LineAddr())) == nil {
					add++
				}
			}
			if lines.Len()+add > capacityLines && j > i {
				break // window full; this iteration starts the next one
			}
			for _, a := range it.Loads {
				*touch(lines, &order, a.LineAddr()) |= planLoaded
			}
			for _, a := range it.Stores {
				la := a.LineAddr()
				f := touch(lines, &order, la)
				if live[la] {
					*f |= planLoaded // read-modify-write of live data
				}
				*f |= planWritten
			}
		}
		out = append(out, plannedWindow(i, j, lines, order))
		i = j
	}
	return out
}

// touch returns la's flags, entering la into the window (and the
// first-touch order) if it is not there yet.
func touch(lines *flat.Map[uint8], order *[]mem.VAddr, la mem.VAddr) *uint8 {
	if f := lines.Ptr(uint64(la)); f != nil {
		return f
	}
	*order = append(*order, la)
	return lines.Put(uint64(la), 0)
}

// plannedWindow builds window [start, end) from its flag table, with both
// transfer sets in first-touch order and carved from one allocation.
func plannedWindow(start, end int, lines *flat.Map[uint8], order []mem.VAddr) Window {
	w := Window{Start: start, End: end}
	nr, nw := 0, 0
	for _, la := range order {
		f := *lines.Ptr(uint64(la))
		if f&planLoaded != 0 {
			nr++
		}
		if f&planWritten != 0 {
			nw++
		}
	}
	if nr+nw == 0 {
		return w
	}
	buf := make([]mem.VAddr, 0, nr+nw)
	for _, la := range order {
		if *lines.Ptr(uint64(la))&planLoaded != 0 {
			buf = append(buf, la)
		}
	}
	for _, la := range order {
		if *lines.Ptr(uint64(la))&planWritten != 0 {
			buf = append(buf, la)
		}
	}
	if nr > 0 {
		w.ReadSet = buf[:nr:nr]
	}
	if nw > 0 {
		w.WriteSet = buf[nr:]
	}
	return w
}
