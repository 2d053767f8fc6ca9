package sim

import "math/bits"

// scheduler is the event-queue abstraction behind the engine: the
// hierarchical time-wheel below. It orders events by (at, seq) — absolute
// cycle, then schedule order. The interface is the seam that lets the
// differential tests swap in the reference binary heap (heapScheduler, in
// heap_test.go) and require identical firing logs.
type scheduler interface {
	// push inserts an event. ev.at must not be in the past (the engine's
	// Schedule* entry points enforce this).
	push(ev event)
	// popDue removes and returns the earliest event whose cycle is <= now,
	// in (at, seq) order. ok=false means nothing is due.
	popDue(now uint64) (ev event, ok bool)
	// next reports the cycle of the earliest pending event.
	next() (at uint64, ok bool)
	// len reports the number of pending events.
	len() int
	// advance tells the scheduler the engine clock reached now. The engine
	// calls it at the top of every Step and monotonically: now never
	// decreases across calls.
	advance(now uint64)
}

// Time-wheel geometry. The near wheel covers wheelSize consecutive cycles
// at one bucket per cycle; events at or beyond the horizon wait in a
// sorted overflow heap and are promoted as the clock approaches.
const (
	wheelBits  = 10
	wheelSize  = 1 << wheelBits // cycles covered by the near wheel
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
	wordMask   = wheelWords - 1
)

// wheelScheduler is a calendar queue: a near wheel of wheelSize one-cycle
// buckets plus an overflow heap for far-future events (lease expiries,
// watchdog deadlines). Invariants:
//
//   - Every wheel-resident event has at in [now, now+wheelSize), where now
//     is the last advance()d cycle (pushes between engine steps may use a
//     one-cycle-stale now; the horizon check and the promotion loop share
//     it, so an event is never wheel-resident while an earlier same-cycle
//     event hides in overflow — FIFO within a cycle is append order).
//   - Each bucket therefore holds events of exactly one absolute cycle at
//     a time, except that a bucket being refilled for cycle T+wheelSize
//     may still hold undrained stragglers for cycle T scheduled during
//     cycle T's tick phase; popDue checks the previous cycle's bucket
//     first, so those stragglers still run before cycle-T+1 events, in
//     (at, seq) order, exactly as the heap would run them.
//   - occ bit b is set iff buckets[b] has undrained events; finding the
//     next pending cycle is a circular bits.TrailingZeros64 scan from the
//     current cycle's word, at most wheelWords+1 word tests.
//
// A drained bucket keeps its backing array (heads[b] rewinds to 0), so a
// warmed-up wheel schedules without allocating, like the warmed-up heap.
type wheelScheduler struct {
	now      uint64 // last advance()d engine cycle
	wcount   int    // events resident in the near wheel
	buckets  [wheelSize][]event
	heads    [wheelSize]int32 // per-bucket pop cursor
	occ      [wheelWords]uint64
	overflow eventHeap // events with at >= now+wheelSize
}

func newWheelScheduler() *wheelScheduler { return &wheelScheduler{} }

func (s *wheelScheduler) push(ev event) {
	if ev.at >= s.now+wheelSize {
		s.overflow.push(ev)
		return
	}
	s.appendBucket(uint64(ev.at)&wheelMask, ev)
}

func (s *wheelScheduler) appendBucket(b uint64, ev event) {
	s.buckets[b] = append(s.buckets[b], ev)
	s.occ[b>>6] |= 1 << (b & 63)
	s.wcount++
}

// popBucket removes the head event of bucket b, resetting the bucket (and
// its occupancy bit) once the last event leaves.
func (s *wheelScheduler) popBucket(b uint64) event {
	q := s.buckets[b]
	h := s.heads[b]
	ev := q[h]
	q[h] = event{} // zero the slot so the retired closure is GC-able
	h++
	if int(h) == len(q) {
		s.buckets[b] = q[:0]
		s.heads[b] = 0
		s.occ[b>>6] &^= 1 << (b & 63)
	} else {
		s.heads[b] = h
	}
	s.wcount--
	return ev
}

func (s *wheelScheduler) popDue(now uint64) (event, bool) {
	if s.wcount == 0 {
		return event{}, false
	}
	// Stragglers first: events scheduled for cycle now-1 during that
	// cycle's tick phase sit in the previous bucket and sort before
	// anything due at now. The bucket may already hold promoted events for
	// cycle now-1+wheelSize, so check the head's cycle, not just
	// occupancy.
	pb := (now - 1) & wheelMask
	if s.occ[pb>>6]&(1<<(pb&63)) != 0 && s.buckets[pb][s.heads[pb]].at <= now {
		return s.popBucket(pb), true
	}
	cb := now & wheelMask
	if s.occ[cb>>6]&(1<<(cb&63)) != 0 {
		return s.popBucket(cb), true
	}
	return event{}, false
}

func (s *wheelScheduler) next() (uint64, bool) {
	at, ok := s.wheelNext()
	if n := len(s.overflow); n > 0 && (!ok || s.overflow[0].at < at) {
		// Overflow can undercut the wheel only after a fast-forward jump
		// outran the promotion horizon; advance() reconciles at the next
		// step.
		at, ok = s.overflow[0].at, true
	}
	return at, ok
}

// wheelNext scans the occupancy bitmap circularly from the current cycle's
// bit: the first set bit at circular distance d marks an event at cycle
// now+d (each bucket holds exactly one cycle's events, modulo the
// straggler case, where the straggler's cycle now-1 is reported as
// now-1+wheelSize; that only happens mid-step, after which the stragglers
// are drained, and never where next() is consulted).
func (s *wheelScheduler) wheelNext() (uint64, bool) {
	if s.wcount == 0 {
		return 0, false
	}
	start := s.now & wheelMask
	wi := start >> 6
	off := start & 63
	if w := s.occ[wi] &^ (1<<off - 1); w != 0 {
		b := wi<<6 + uint64(bits.TrailingZeros64(w))
		return s.now + (b-start)&wheelMask, true
	}
	for k := uint64(1); k < wheelWords; k++ {
		i := (wi + k) & wordMask
		if w := s.occ[i]; w != 0 {
			b := i<<6 + uint64(bits.TrailingZeros64(w))
			return s.now + (b-start)&wheelMask, true
		}
	}
	if w := s.occ[wi] & (1<<off - 1); w != 0 {
		b := wi<<6 + uint64(bits.TrailingZeros64(w))
		return s.now + (b-start)&wheelMask, true
	}
	return 0, false
}

func (s *wheelScheduler) len() int { return s.wcount + len(s.overflow) }

// advance moves the horizon to now+wheelSize and promotes every overflow
// event that now fits into the wheel. Promotion pops the overflow heap in
// (at, seq) order and appends, preserving FIFO within each bucket.
func (s *wheelScheduler) advance(now uint64) {
	s.now = now
	horizon := now + wheelSize
	for len(s.overflow) > 0 && s.overflow[0].at < horizon {
		ev := s.overflow.pop()
		s.appendBucket(uint64(ev.at)&wheelMask, ev)
	}
}
