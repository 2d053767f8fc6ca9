package sim

import (
	"math/bits"
	"slices"
)

// Time-wheel geometry. The near wheel covers wheelSize consecutive cycles
// at one bucket per cycle; events at or beyond the horizon wait in a
// sorted overflow heap and are promoted as the clock approaches. The size
// follows the delays the model schedules: on the fusion-cells mix 72% of
// events are one cycle ahead, 97.6% within 64 cycles and 98.7% within 256,
// so 256 buckets send 1.3% of events through the overflow heap, and a
// wider wheel mostly adds buckets each engine must allocate.
const (
	wheelBits  = 8
	wheelSize  = 1 << wheelBits // cycles covered by the near wheel
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
	wordMask   = wheelWords - 1
)

// wheelScheduler is the engine's event queue, a calendar queue: a near
// wheel of wheelSize one-cycle buckets plus an overflow heap for
// far-future events (lease expiries). A ticker's wake cycle, the
// watchdog's deadline included, is no event and never enters the queue.
// Events fire in (at, schedule order). Invariants:
//
//   - Every wheel-resident event has at in [now, now+wheelSize), where now
//     is the last advance()d cycle (pushes between engine steps may use a
//     one-cycle-stale now; the horizon check and the promotion loop share
//     it, so an event is never wheel-resident while an earlier same-cycle
//     event hides in overflow). A bucket is therefore in schedule order by
//     construction: direct pushes and promotions both append.
//   - Each bucket holds events of exactly one absolute cycle at a time,
//     except that a bucket being refilled for cycle T+wheelSize may still
//     hold undrained stragglers for cycle T scheduled during cycle T's tick
//     phase; fire drains the previous cycle's bucket first, so those
//     stragglers still run before cycle-T+1 events, exactly as a heap
//     ordered by (at, schedule order) would run them.
//   - occ bit b is set iff buckets[b] has undrained events; finding the
//     next pending cycle is a circular bits.TrailingZeros64 scan from the
//     current cycle's word, at most wheelWords+1 word tests.
//
// A drained bucket keeps its backing array (heads[b] rewinds to 0), so a
// warmed-up wheel schedules without allocating.
type wheelScheduler struct {
	now      uint64 // last advance()d engine cycle
	wcount   int    // events resident in the near wheel
	buckets  [wheelSize][]event
	heads    [wheelSize]int32 // per-bucket fire cursor
	occ      [wheelWords]uint64
	overflow overflowHeap // events with at >= now+wheelSize
}

// bucketCap is each bucket's initial capacity. The buckets start as
// windows of one slab, so a fresh engine grows a bucket only once it holds
// more than bucketCap events at a time (about 6% of bucket drains on the
// fusion-cells mix), instead of growing every bucket from empty.
const bucketCap = 8

func newWheelScheduler() *wheelScheduler {
	s := new(wheelScheduler)
	slab := make([]event, wheelSize*bucketCap)
	for b := range s.buckets {
		s.buckets[b] = slab[b*bucketCap : b*bucketCap : (b+1)*bucketCap]
	}
	return s
}

// push inserts an event. at must not be in the past (the engine's
// Schedule* entry points enforce this).
func (s *wheelScheduler) push(at uint64, h EventHandler, op uint8, arg uint64) {
	if at >= s.now+wheelSize {
		s.overflow.push(event{at: at, h: h, arg: arg, op: op})
		return
	}
	// The fields are stored into the slot directly: appending a composite
	// literal builds the event on the stack and copies it in, a store-load
	// round trip that cost more than the rest of the push.
	b := at & wheelMask
	q := slices.Grow(s.buckets[b], 1)
	q = q[:len(q)+1]
	ev := &q[len(q)-1]
	ev.at, ev.h, ev.arg, ev.op = at, h, arg, op
	s.buckets[b] = q
	s.occ[b>>6] |= 1 << (b & 63)
	s.wcount++
}

// fire runs every event due at now: the stragglers left in the previous
// cycle's bucket, then the current cycle's bucket.
func (s *wheelScheduler) fire(now uint64) {
	if s.wcount == 0 {
		return
	}
	s.drain((now-1)&wheelMask, now)
	s.drain(now&wheelMask, now)
}

// drain fires bucket b's events up to the first one due after now (a
// promoted event one lap later than the stragglers it shares a bucket
// with). Each event fires where it sits: its fields are read through a
// pointer and its slot zeroed, so the retired handler is collectable,
// before the dispatch. A handler may append to b (a zero delay), so the
// bucket is re-read on every iteration.
func (s *wheelScheduler) drain(b, now uint64) {
	for s.occ[b>>6]&(1<<(b&63)) != 0 {
		q := s.buckets[b]
		i := s.heads[b]
		ev := &q[i]
		if ev.at > now {
			return
		}
		h, op, arg := ev.h, ev.op, ev.arg
		*ev = event{}
		if i++; int(i) == len(q) {
			s.buckets[b] = q[:0]
			s.heads[b] = 0
			s.occ[b>>6] &^= 1 << (b & 63)
		} else {
			s.heads[b] = i
		}
		s.wcount--
		h.HandleEvent(now, op, arg)
	}
}

// next reports the cycle of the earliest pending event.
func (s *wheelScheduler) next() (uint64, bool) {
	at, ok := s.wheelNext()
	if o := s.overflow.items; len(o) > 0 && (!ok || o[0].at < at) {
		// Overflow can undercut the wheel only after a fast-forward jump
		// outran the promotion horizon; advance() reconciles at the next
		// step.
		at, ok = o[0].at, true
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

// len reports the number of pending events.
func (s *wheelScheduler) len() int { return s.wcount + len(s.overflow.items) }

// advance moves the horizon to now+wheelSize and promotes every overflow
// event that now fits into the wheel. The engine calls it at the top of
// every Step, with now never decreasing. Promotion pops the overflow heap
// in (at, seq) order and appends, preserving schedule order within each
// bucket.
func (s *wheelScheduler) advance(now uint64) {
	s.now = now
	horizon := now + wheelSize
	for o := &s.overflow; len(o.items) > 0 && o.items[0].at < horizon; {
		ev := o.pop()
		s.push(ev.at, ev.h, ev.op, ev.arg) // inside the new horizon
	}
}

// overflowHeap is a binary min-heap of far-future events ordered by (at,
// seq). seq is the heap's own push counter, the tie-break that keeps
// same-cycle events in schedule order. It only orders events that coexist
// in the heap, so it rebases to zero whenever the heap drains: a wrap would
// need 2^64 events pending at once, which memory cannot hold. pop zeroes
// the vacated slot so the popped event's handler is collectable.
type overflowHeap struct {
	items []overflowEvent
	seq   uint64
}

type overflowEvent struct {
	event
	seq uint64
}

func (h *overflowHeap) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *overflowHeap) push(ev event) {
	if len(h.items) == 0 {
		h.seq = 0
	}
	h.seq++
	h.items = append(h.items, overflowEvent{ev, h.seq})
	q := h.items
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *overflowHeap) pop() event {
	q := h.items
	top := q[0].event
	n := len(q) - 1
	q[0] = q[n]
	q[n] = overflowEvent{}
	q = q[:n]
	h.items = q
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}
