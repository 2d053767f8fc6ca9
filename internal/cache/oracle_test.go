package cache

import (
	"math/rand"
	"testing"

	"fusion/internal/mem"
)

// setMajor is the array's earlier line storage, kept as a test oracle:
// one chunk per chunkSets sets, holding all their ways row-major by set,
// allocated whole when Victim (or LineAt) first touches one of its sets.
// Array's way-major storage must pick the same lines, in the same order,
// under every operation.
type setMajor struct {
	sets, ways int
	lineShift  uint
	lineBytes  uint64
	chunks     [][]Line
	stamp      uint64
}

func newSetMajor(p Params) *setMajor {
	a := NewArray(p)
	return &setMajor{sets: a.sets, ways: a.ways, lineShift: a.lineShift,
		lineBytes: uint64(p.LineBytes), chunks: make([][]Line, (a.sets+chunkSets-1)/chunkSets)}
}

func (a *setMajor) setIndex(addr uint64) int { return int((addr >> a.lineShift) % uint64(a.sets)) }

func (a *setMajor) setAt(s int) []Line {
	c := a.chunks[s/chunkSets]
	if c == nil {
		return nil
	}
	off := s % chunkSets * a.ways
	return c[off : off+a.ways]
}

func (a *setMajor) chunk(k int) []Line {
	if a.chunks[k] == nil {
		a.chunks[k] = make([]Line, min(chunkSets, a.sets-k*chunkSets)*a.ways)
	}
	return a.chunks[k]
}

func (a *setMajor) lookup(addr uint64, pid mem.PID, checkPID, touch bool) *Line {
	want := addr &^ (a.lineBytes - 1)
	set := a.setAt(a.setIndex(addr))
	for i := range set {
		l := &set[i]
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

func (a *setMajor) victim(addr uint64) *Line {
	s := a.setIndex(addr)
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

func (a *setMajor) victimUnpinned(addr uint64, pinned func(*Line) bool) *Line {
	for range a.ways {
		v := a.victim(addr)
		if !v.Valid || !pinned(v) {
			return v
		}
		a.touch(v)
	}
	return nil
}

func (a *setMajor) fill(l *Line, addr uint64, pid mem.PID) {
	a.stamp++
	*l = Line{Valid: true, Addr: addr &^ (a.lineBytes - 1), PID: pid, lru: a.stamp}
}

func (a *setMajor) touch(l *Line) {
	a.stamp++
	l.lru = a.stamp
}

func (a *setMajor) forEach(fn func(*Line)) {
	for _, c := range a.chunks {
		for i := range c {
			fn(&c[i])
		}
	}
}

func (a *setMajor) lineAt(i int) *Line {
	n := chunkSets * a.ways
	return &a.chunk(i / n)[i%n]
}

func (a *setMajor) slotOf(addr uint64, l *Line) int {
	s := a.setIndex(addr)
	set := a.setAt(s)
	for i := range set {
		if &set[i] == l {
			return s*a.ways + i
		}
	}
	return -1
}

// peekSlot returns the line at slot i, or nil while its chunk is
// unallocated; unlike LineAt it never allocates.
func (a *Array) peekSlot(i int) *Line {
	base, off := a.group(i / a.ways)
	if c := a.chunks[base+i%a.ways]; c != nil {
		return &c[off]
	}
	return nil
}

// validLines lists the valid lines a ForEach visits, in visit order.
func validLines(forEach func(func(*Line))) []Line {
	var out []Line
	forEach(func(l *Line) {
		if l.Valid {
			out = append(out, *l)
		}
	})
	return out
}

// TestWayMajorMatchesSetMajor drives Array and the set-major oracle
// through the same random operations over the tile's and the host's cache
// geometries. Every operation must return the line in the same slot, and
// the two must agree on every line (LRU stamps included), on the order
// ForEach visits the valid lines, and on SlotOf/LineAt round trips.
func TestWayMajorMatchesSetMajor(t *testing.T) {
	geometries := []struct {
		name string
		p    Params
	}{
		{"l0x", Params{SizeBytes: 4 << 10, Ways: 4, LineBytes: 64}},
		{"l0x-large", Params{SizeBytes: 8 << 10, Ways: 4, LineBytes: 64}},
		{"l1x", Params{SizeBytes: 64 << 10, Ways: 8, LineBytes: 64}},
		{"l1x-large", Params{SizeBytes: 256 << 10, Ways: 8, LineBytes: 64}},
		{"host-l1", Params{SizeBytes: 64 << 10, Ways: 4, LineBytes: 64}},
		{"llc", Params{SizeBytes: 4 << 20, Ways: 16, LineBytes: 64}},
		{"short-group", Params{SizeBytes: 100 * 2 * 64, Ways: 2, LineBytes: 64}},
	}
	for _, g := range geometries {
		for seed := int64(1); seed <= 3; seed++ {
			runOracle(t, g.name, g.p, seed)
		}
	}
}

func runOracle(t *testing.T, name string, p Params, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	a, ref := NewArray(p), newSetMajor(p)
	// A handful of sets spread over the groups (the last set included),
	// each with about twice as many tags as ways, so sets fill, evict and
	// leave holes below valid ways.
	sets := []int{0, a.sets - 1}
	for range 6 {
		sets = append(sets, rng.Intn(a.sets))
	}
	stride := uint64(a.sets) * 64
	addrOf := func() uint64 {
		set, tag := sets[rng.Intn(len(sets))], uint64(rng.Intn(2*a.ways+1))
		return tag*stride + uint64(set)*64 + uint64(rng.Intn(64))
	}
	slot := func(addr uint64, l *Line) int {
		if l == nil {
			return -1
		}
		return a.SlotOf(addr, l)
	}
	refSlot := func(addr uint64, l *Line) int {
		if l == nil {
			return -1
		}
		return ref.slotOf(addr, l)
	}
	check := func(step int, op string, addr uint64, got, want *Line) {
		t.Helper()
		if s, rs := slot(addr, got), refSlot(addr, want); s != rs {
			t.Fatalf("%s seed %d step %d: %s(%#x) picked slot %d, set-major slot %d",
				name, seed, step, op, addr, s, rs)
		}
	}
	compareAll := func(step int) {
		t.Helper()
		for i := range a.NumLines() {
			l := a.peekSlot(i)
			want := ref.lineAt(i) // allocating the oracle's chunks is harmless
			if l == nil {
				if want.Valid {
					t.Fatalf("%s seed %d step %d: slot %d unallocated, set-major holds %+v",
						name, seed, step, i, *want)
				}
				continue
			}
			if *l != *want {
				t.Fatalf("%s seed %d step %d: slot %d is %+v, set-major %+v",
					name, seed, step, i, *l, *want)
			}
		}
		got, want := validLines(a.ForEach), validLines(ref.forEach)
		if len(got) != len(want) {
			t.Fatalf("%s seed %d step %d: ForEach saw %d valid lines, set-major %d",
				name, seed, step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s seed %d step %d: ForEach's valid line %d is %+v, set-major %+v",
					name, seed, step, i, got[i], want[i])
			}
		}
		a.ForEach(func(l *Line) {
			if !l.Valid {
				return
			}
			s := a.SlotOf(l.Addr, l)
			if a.LineAt(s) != l || *ref.lineAt(s) != *l {
				t.Fatalf("%s seed %d step %d: line %#x in slot %d does not round-trip",
					name, seed, step, l.Addr, s)
			}
		})
	}

	const steps = 3000
	for step := range steps {
		addr, pid := addrOf(), mem.PID(rng.Intn(3))
		switch op := rng.Intn(16); {
		case op < 3:
			check(step, "Lookup", addr, a.Lookup(addr), ref.lookup(addr, 0, false, true))
		case op < 5:
			check(step, "LookupPID", addr, a.LookupPID(addr, pid), ref.lookup(addr, pid, true, true))
		case op < 6:
			check(step, "Peek", addr, a.Peek(addr), ref.lookup(addr, 0, false, false))
		case op < 10:
			// A miss fills its victim, as every controller does.
			l, rl := a.LookupPID(addr, pid), ref.lookup(addr, pid, true, true)
			check(step, "LookupPID", addr, l, rl)
			if l == nil {
				v, rv := a.Victim(addr), ref.victim(addr)
				check(step, "Victim", addr, v, rv)
				a.Fill(v, addr, pid)
				ref.fill(rv, addr, pid)
			}
		case op < 12:
			pins := rng.Uint64()
			pinned := func(l *Line) bool { return pins>>(l.Addr/stride%64)&1 != 0 }
			v, rv := a.VictimUnpinned(addr, pinned), ref.victimUnpinned(addr, pinned)
			check(step, "VictimUnpinned", addr, v, rv)
			if v != nil {
				a.Fill(v, addr, pid)
				ref.fill(rv, addr, pid)
			}
		case op < 13:
			if l, rl := a.Peek(addr), ref.lookup(addr, 0, false, false); l != nil {
				a.Touch(l)
				ref.touch(rl)
			}
		case op < 15:
			// A controller invalidates by zeroing the line.
			l, rl := a.Peek(addr), ref.lookup(addr, 0, false, false)
			check(step, "invalidate", addr, l, rl)
			if l != nil {
				*l, *rl = Line{}, Line{}
			}
		default:
			// LineAt of any slot, which may allocate a way chunk ahead of
			// the lower ways.
			i := sets[rng.Intn(len(sets))]*a.ways + rng.Intn(a.ways)
			if *a.LineAt(i) != *ref.lineAt(i) {
				t.Fatalf("%s seed %d step %d: LineAt(%d) = %+v, set-major %+v",
					name, seed, step, i, *a.LineAt(i), *ref.lineAt(i))
			}
		}
		if a.stamp != ref.stamp {
			t.Fatalf("%s seed %d step %d: stamp %d, set-major %d", name, seed, step, a.stamp, ref.stamp)
		}
		if step%500 == 499 {
			compareAll(step)
		}
	}
	compareAll(steps)
}
