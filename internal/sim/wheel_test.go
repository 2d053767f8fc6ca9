package sim

// Tests for the time-wheel scheduler: FIFO among equal-cycle events,
// far-future overflow promotion (including promotion into a bucket that
// still holds stragglers for a previous lap), drain-rebase of the overflow
// heap's seq counter, fast-forward jumps across empty buckets, and a
// randomized heap-vs-wheel differential.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestWheelEqualCycleFIFO schedules a same-cycle batch from three origins
// — directly within the horizon, via the overflow heap, and with zero
// delay while that cycle's event phase is draining — and requires strict
// scheduling order.
func TestWheelEqualCycleFIFO(t *testing.T) {
	e := NewEngine()
	const at = wheelSize * 2 // beyond the horizon at schedule time
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.ScheduleAt(at, func(uint64) {
			order = append(order, i)
			if i == 3 {
				// Zero-delay events land after the queued batch, in order.
				for j := 0; j < 3; j++ {
					j := j
					e.Schedule(0, func(uint64) { order = append(order, 100+j) })
				}
			}
		})
	}
	e.Run(at+1, nil)
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 100, 101, 102}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("equal-cycle order = %v, want %v", order, want)
	}
}

// TestWheelOverflowPromotion checks that events parked beyond the horizon
// fire at exactly their cycle once the wheel reaches them, and that a
// promoted event that shares a bucket with stragglers from one lap earlier
// runs after those stragglers but at its own, later cycle.
func TestWheelOverflowPromotion(t *testing.T) {
	e := NewEngine()
	fired := map[string]uint64{}
	// Far-future events, scheduled out of cycle order.
	e.ScheduleAt(3*wheelSize+5, func(now uint64) { fired["far2"] = now })
	e.ScheduleAt(2*wheelSize+5, func(now uint64) { fired["far1"] = now })
	if n := len(e.sched.overflow.items); n != 2 {
		t.Fatalf("overflow holds %d events, want 2", n)
	}
	// A straggler for cycle 9, scheduled during cycle 9's tick phase (an
	// event callback would drain in the same cycle; only a Ticker runs
	// after the event phase), plus a promoted event one lap later in the
	// same bucket (cycle 9+wheelSize).
	e.ScheduleAt(9+wheelSize, func(now uint64) { fired["lap"] = now })
	e.Register(&tickScheduler{eng: e, at: 9, fn: func(now uint64) { fired["straggler"] = now }})
	e.Run(4*wheelSize, nil)
	want := map[string]uint64{
		"far1": 2*wheelSize + 5, "far2": 3*wheelSize + 5,
		"straggler": 10, "lap": 9 + wheelSize,
	}
	for k, w := range want {
		if fired[k] != w {
			t.Fatalf("%s fired at %d, want %d (all: %v)", k, fired[k], w, fired)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending", e.Pending())
	}
}

// TestWheelDrainRebase: the overflow heap's seq counter does not rebase
// while a far event is still pending, even once the wheel has drained, and
// rebases when the overflow heap drains, even while wheel events are still
// pending.
func TestWheelDrainRebase(t *testing.T) {
	e := NewEngine()
	const far = 2 * wheelSize
	e.ScheduleAt(far, func(uint64) {}) // overflow resident
	for i := 0; i < 10; i++ {
		e.Schedule(0, func(uint64) {})
	}
	e.Step()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the one overflow event", e.Pending())
	}
	e.ScheduleAt(far+1, func(uint64) {})
	if got := e.sched.overflow.seq; got != 2 {
		t.Fatalf("overflow seq = %d with a far event pending, want 2 (no rebase)", got)
	}
	e.Run(far+2, nil)
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after run, want 0", e.Pending())
	}
	e.Schedule(1, func(uint64) {}) // wheel resident: the overflow stays empty
	e.ScheduleAt(e.Now()+far, func(uint64) {})
	if got := e.sched.overflow.seq; got != 1 {
		t.Fatalf("overflow seq = %d after the overflow drained, want rebase to 1", got)
	}
}

// TestWheelFastForwardJump verifies Run's quiescence jump lands exactly on
// the next event even when that event is several empty buckets — or a
// whole wheel lap — away, with no tickers to pin the clock.
func TestWheelFastForwardJump(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	for _, at := range []uint64{7, wheelSize - 24, wheelSize + 3, 5 * wheelSize} {
		e.ScheduleAt(at, func(now uint64) { fired = append(fired, now) })
	}
	cycles, _ := e.Run(6*wheelSize, nil)
	if cycles != 6*wheelSize {
		t.Fatalf("ran %d cycles, want %d", cycles, 6*wheelSize)
	}
	want := []uint64{7, wheelSize - 24, wheelSize + 3, 5 * wheelSize}
	if fmt.Sprint(fired) != fmt.Sprint(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestFastForwardAdvancesWheel: a jump moves the wheel's horizon with the
// clock, so an event scheduled between Run calls, one cycle after the
// skipped-to cycle, lands in the near wheel rather than the overflow heap,
// and still fires on time.
func TestFastForwardAdvancesWheel(t *testing.T) {
	e := NewEngine()
	if _, done := e.Run(1000, nil); done || e.Now() != 1000 || e.Steps() != 0 {
		t.Fatalf("idle Run(1000) left now=%d after %d steps, want a jump to 1000", e.Now(), e.Steps())
	}
	fired := uint64(0)
	e.ScheduleCall(1, funcHandler(func(now uint64) { fired = now }), 0, 0)
	if e.sched.now != 1000 || e.sched.wcount != 1 || len(e.sched.overflow.items) != 0 {
		t.Fatalf("wheel now=%d, %d wheel and %d overflow events; want now=1000 and the event in the wheel",
			e.sched.now, e.sched.wcount, len(e.sched.overflow.items))
	}
	e.Run(10, func() bool { return fired != 0 })
	if fired != 1001 {
		t.Fatalf("event fired at %d, want 1001", fired)
	}
}

// tickScheduler schedules fn with zero delay during the tick phase of
// cycle at, producing a bucket straggler: the event's cycle has already
// drained, so it runs at the head of the next cycle's event phase.
type tickScheduler struct {
	eng *Engine
	at  uint64
	fn  func(now uint64)
}

func (ts *tickScheduler) Name() string { return "tickScheduler" }

func (ts *tickScheduler) Tick(now uint64) {
	if now == ts.at {
		ts.eng.Schedule(0, ts.fn)
	}
}

// diffTicker drives the differential test below: each Tick it may schedule
// events at pseudo-random delays (drawn from its own generator, so every
// queue sees the same sequence). Once its event budget is spent its Tick
// is a no-op and it sleeps (through sleep, when set), so the tail of the
// run exercises fast-forwarding over the far-future events it left behind.
type diffTicker struct {
	at    func(at uint64, fn func(now uint64)) // schedules fn at cycle at
	sleep func()                               // takes it out of the tick phase for good
	rng   *rand.Rand
	log   *[]string
	n     int
}

func (d *diffTicker) Name() string { return "diff" }

// spent reports whether the event budget is used up.
func (d *diffTicker) spent() bool { return d.n >= 200 }

func (d *diffTicker) Tick(now uint64) {
	if d.spent() {
		if d.sleep != nil {
			d.sleep()
		}
		return
	}
	if d.rng.Intn(4) != 0 {
		return
	}
	d.schedule(now, 0) // a zero delay here leaves a bucket straggler
}

func (d *diffTicker) schedule(now uint64, depth int) {
	d.n++
	id := d.n
	// Delays cover same-cycle (0), near-wheel, bucket-collision (exactly
	// one lap), and deep-overflow cases.
	delay := [...]uint64{0, 1, 3, 50, wheelSize, wheelSize + 1, 3 * wheelSize}[d.rng.Intn(7)]
	d.at(now+delay, func(at uint64) {
		*d.log = append(*d.log, fmt.Sprintf("%d@%d", id, at))
		if depth < 3 && d.rng.Intn(3) == 0 {
			d.schedule(at, depth+1)
		}
	})
}

// runQueue drives q through the call sequence Engine.Run issues to its
// wheel: a quiescence jump to the next event once the ticker's budget is
// spent and nothing is due, otherwise advance, fire, tick, and the next
// cycle.
func runQueue(q queue, d *diffTicker, limit uint64) {
	for now := uint64(0); now < limit; {
		if d.spent() {
			if at, ok := q.next(); !ok || at > now {
				now = limit
				if ok && at < limit {
					now = at
				}
				q.advance(now)
				continue
			}
		}
		q.advance(now)
		q.fire(now)
		d.Tick(now)
		now++
	}
}

// TestHeapWheelDifferential runs the same randomized workload — a ticker
// scheduling events at mixed delays, events rescheduling recursively,
// tick-phase stragglers, quiescent stretches fast-forwarded — through the
// reference heap and the wheel at the queue level, and through an Engine,
// and requires the complete (id, cycle) firing logs to match.
func TestHeapWheelDifferential(t *testing.T) {
	const limit = 20 * wheelSize
	for seed := int64(1); seed <= 10; seed++ {
		logs := map[string][]string{}
		for _, qc := range queues {
			q := qc.new()
			var log []string
			d := &diffTicker{rng: rand.New(rand.NewSource(seed)), log: &log,
				at: func(at uint64, fn func(uint64)) { q.push(at, funcHandler(fn), 0, 0) }}
			runQueue(q, d, limit)
			if q.len() != 0 {
				t.Fatalf("seed %d %s: %d events still pending", seed, qc.name, q.len())
			}
			logs[qc.name] = log
		}
		e := NewEngine()
		var log []string
		d := &diffTicker{rng: rand.New(rand.NewSource(seed)), log: &log, at: e.ScheduleAt}
		i := e.Register(d)
		d.sleep = func() { e.Sleep(i, math.MaxUint64) }
		e.Run(limit, nil)
		if e.Pending() != 0 {
			t.Fatalf("seed %d engine: %d events still pending", seed, e.Pending())
		}
		if e.Steps() >= limit {
			t.Fatalf("seed %d engine: stepped all %d cycles, want the quiescent tail skipped", seed, limit)
		}
		logs["engine"] = log
		h := logs["heap"]
		if len(h) == 0 {
			t.Fatalf("seed %d: empty firing log", seed)
		}
		for _, name := range []string{"wheel", "engine"} {
			w := logs[name]
			if fmt.Sprint(h) == fmt.Sprint(w) {
				continue
			}
			for i := range h {
				if i >= len(w) {
					t.Fatalf("seed %d: %s log stops after %d of %d heap entries", seed, name, len(w), len(h))
				}
				if h[i] != w[i] {
					t.Fatalf("seed %d: firing logs diverge at %d: heap %q vs %s %q", seed, i, h[i], name, w[i])
				}
			}
			t.Fatalf("seed %d: %s log longer than heap log (%d vs %d)", seed, name, len(w), len(h))
		}
	}
}
