// Package sim provides the discrete, cycle-driven simulation kernel used by
// every timed component in the Fusion simulator.
//
// The kernel advances a global clock one cycle at a time. Each cycle has two
// phases:
//
//  1. The event phase: callbacks scheduled for the current cycle run in
//     scheduling order (stable FIFO among events that share a cycle).
//  2. The tick phase: every awake Ticker runs once, in registration
//     order. A ticker with nothing loaded sleeps (see Engine.Sleep) and is
//     not called until the component that hands it work wakes it.
//
// Both orderings are fully deterministic, which matters for a coherence
// simulator: two runs with the same inputs produce bit-identical message
// interleavings and statistics.
//
// Run additionally fast-forwards over quiescent stretches: when every
// awake Ticker declares itself idle (see IdleTicker) and no event is due,
// the clock jumps straight to the next event instead of executing empty
// cycles. The jump is invisible to components — cycle counts, event
// ordering, predicate observation points, and watchdog trip cycles are all
// identical to per-cycle stepping.
package sim

import (
	"math"
	"math/bits"
)

// Ticker is a component that does work every cycle: drains its inbound
// queues, advances its pipeline, and sends messages.
type Ticker interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Tick performs one cycle of work at time now.
	Tick(now uint64)
}

// IdleTicker is optionally implemented by Tickers that can prove their Tick
// is a no-op until some scheduled event changes their state. While Idle
// reports true, Tick must not change any state another component can
// observe — the engine is then free to skip the ticker's Tick calls
// entirely during a quiescence fast-forward. An idle ticker may still owe
// per-cycle accounting (a busy-cycle count, an occupancy sample), provided
// it settles the skipped cycles itself before its state next changes — in
// its next Tick or in the event callback that changes it — so the totals
// equal per-cycle stepping. Tickers that do not implement the interface
// conservatively count as always busy, which disables fast-forwarding for
// the whole engine while they are awake.
type IdleTicker interface {
	Idle() bool
}

// Waker is optionally implemented by tickers that, even while idle, must be
// ticked again no later than a specific future cycle (the watchdog's trip
// deadline is the canonical case). WakeAt returns that cycle; ok=false
// means the ticker imposes no deadline. A quiescence fast-forward never
// jumps past any awake waker's deadline; a sleeping ticker has none.
type Waker interface {
	WakeAt(now uint64) (at uint64, ok bool)
}

// EventHandler is an event target. Hot components (link delivery, fabric
// delivery, directory request intake, lease expiry) implement it once;
// ScheduleCall then carries only an interface pointer, a handler-private
// opcode, and one integer argument — no func allocation per event. Cold
// paths keep using Schedule with closures.
type EventHandler interface {
	HandleEvent(now uint64, op uint8, arg uint64)
}

// funcHandler adapts a Schedule closure to EventHandler. A func value is
// pointer-shaped, so the conversion to the interface allocates nothing.
type funcHandler func(now uint64)

func (f funcHandler) HandleEvent(now uint64, _ uint8, _ uint64) { f(now) }

// event is a scheduled dispatch, h.HandleEvent(at, op, arg). It carries no
// sequence number: a wheel bucket is in schedule order by construction,
// and only the overflow heap stamps its own tie-break.
type event struct {
	at  uint64
	h   EventHandler
	arg uint64
	op  uint8
}

// registered is a Ticker with its IdleTicker and Waker views, nil if not
// implemented.
type registered struct {
	t    Ticker
	idle IdleTicker
	wake Waker
}

// Engine is the simulation clock and event queue. It is not safe for
// concurrent use; each simulation is single-threaded by design (a sweep
// parallelizes across engines, never within one).
type Engine struct {
	now   uint64
	sched *wheelScheduler

	// tickers in registration order, and awake with one bit per ticker,
	// set unless it sleeps (Sleep). Only awake tickers tick and answer
	// skipTarget's polls. Fast-forwarding requires every awake ticker to
	// prove idleness, so one awake opaque ticker pins the engine to
	// per-cycle stepping.
	tickers    []registered
	awake      []uint64
	noIdleSkip bool

	// progress, when set, is invoked by Progress — the heartbeat sink for
	// a forward-progress Watchdog.
	progress func()

	// interrupt, when set, is polled by Run at most once every
	// interruptEvery cycles; a non-nil return aborts the run with that
	// error (surfaced by RunE). This is how host-side control — context
	// cancellation, wall-clock deadlines — reaches into a simulation
	// without the simulation itself ever reading the wall clock.
	interrupt      func() error
	interruptEvery uint64
	interruptNext  uint64
	interruptErr   error
}

// NewEngine returns an engine with the clock at cycle 0 and an empty time
// wheel (O(1) schedule and fire through a calendar of cycle buckets).
func NewEngine() *Engine {
	return &Engine{sched: newWheelScheduler()}
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Register adds a Ticker, awake, and returns its index for Sleep and Wake.
// Tick order is registration order.
func (e *Engine) Register(t Ticker) int {
	i := len(e.tickers)
	it, _ := t.(IdleTicker)
	w, _ := t.(Waker)
	e.tickers = append(e.tickers, registered{t, it, w})
	if i>>6 == len(e.awake) {
		e.awake = append(e.awake, 0)
	}
	e.Wake(i)
	return i
}

// Sleep takes ticker i out of the tick phase, and out of the Idle and
// WakeAt polls of a fast-forward, until Wake(i). A ticker may sleep only
// while its Tick is a no-op and it has no WakeAt deadline, and whatever
// hands it work must wake it. With idle-skip disabled Sleep does nothing,
// so every ticker ticks on every cycle.
func (e *Engine) Sleep(i int) {
	if !e.noIdleSkip {
		e.awake[i>>6] &^= 1 << (i & 63)
	}
}

// Wake returns ticker i to the tick phase. Woken in the event phase or by a
// ticker registered before it, it ticks in the current cycle; woken by
// itself or by a later ticker, in the next one.
func (e *Engine) Wake(i int) { e.awake[i>>6] |= 1 << (i & 63) }

// SetIdleSkip enables or disables quiescence fast-forwarding in Run. It is
// on by default; disabling it also wakes every ticker and makes Sleep a
// no-op, so the engine ticks every ticker on every cycle, which is useful
// for A/B-validating that sleeping and skipping never change simulation
// results.
func (e *Engine) SetIdleSkip(enabled bool) {
	e.noIdleSkip = !enabled
	if !enabled {
		for i := range e.tickers {
			e.Wake(i)
		}
	}
}

// Schedule runs fn delay cycles from now. A delay of zero runs fn later in
// the current cycle's event phase if that phase is still draining, otherwise
// at the start of the next cycle's event phase.
func (e *Engine) Schedule(delay uint64, fn func(now uint64)) {
	e.sched.push(e.now+delay, funcHandler(fn), 0, 0)
}

// ScheduleAt runs fn at absolute cycle at, which must not be in the past.
func (e *Engine) ScheduleAt(at uint64, fn func(now uint64)) {
	if at < e.now {
		Failf("sim.engine", e.now, "", "ScheduleAt(%d) is in the past", at)
	}
	e.sched.push(at, funcHandler(fn), 0, 0)
}

// ScheduleCall runs h.HandleEvent(now, op, arg) delay cycles from now. It is
// the closure-free twin of Schedule: the event carries no func value, so a
// steady-state schedule allocates nothing once the wheel's backing arrays
// have warmed up. op and arg are opaque to the engine.
func (e *Engine) ScheduleCall(delay uint64, h EventHandler, op uint8, arg uint64) {
	e.sched.push(e.now+delay, h, op, arg)
}

// ScheduleCallAt is ScheduleCall with an absolute cycle, which must not be
// in the past.
func (e *Engine) ScheduleCallAt(at uint64, h EventHandler, op uint8, arg uint64) {
	if at < e.now {
		Failf("sim.engine", e.now, "", "ScheduleCallAt(%d) is in the past", at)
	}
	e.sched.push(at, h, op, arg)
}

// SetInterrupt installs fn as Run's abort poll, invoked at most once every
// `every` cycles (0 means every cycle). A non-nil return stops the run at
// the current cycle; RunE then surfaces that error to the caller. The poll
// only ever aborts — it must not mutate simulation state — so arming it
// cannot change the results of a run that completes. Passing a nil fn
// disarms the poll.
func (e *Engine) SetInterrupt(every uint64, fn func() error) {
	if every == 0 {
		every = 1
	}
	e.interrupt = fn
	e.interruptEvery = every
	e.interruptNext = e.now + every
}

// checkInterrupt polls the interrupt hook when its cycle quota has elapsed.
// It reports true when the run must abort (the error is parked in
// interruptErr for RunE to pick up).
func (e *Engine) checkInterrupt() bool {
	if e.interrupt == nil || e.now < e.interruptNext {
		return false
	}
	e.interruptNext = e.now + e.interruptEvery
	if err := e.interrupt(); err != nil {
		e.interruptErr = err
		return true
	}
	return false
}

// SetProgressListener installs the heartbeat sink invoked by Progress
// (typically a Watchdog's Beat). Passing nil disables forwarding.
func (e *Engine) SetProgressListener(fn func()) { e.progress = fn }

// Progress marks forward progress. Components call it at completion points —
// an op retiring, an MSHR freeing, a link delivering — never from retry
// loops, so a livelock does not masquerade as progress. It is a no-op unless
// a listener is installed.
func (e *Engine) Progress() {
	if e.progress != nil {
		e.progress()
	}
}

// Step advances the clock by exactly one cycle. It never fast-forwards;
// manual Step loops retain strict per-cycle semantics.
func (e *Engine) Step() {
	// Let the wheel catch up with the clock (promoting overflow events
	// that entered the near horizon), then run the event phase: everything
	// scheduled for the current cycle, including events scheduled with
	// zero delay while draining.
	e.sched.advance(e.now)
	e.sched.fire(e.now)
	// Tick phase: the awake tickers in registration order. The set is
	// re-read after every Tick, so a ticker woken by an earlier one still
	// ticks in this cycle.
	for w := 0; w < len(e.awake); w++ {
		for m := e.awake[w]; m != 0; {
			b := bits.TrailingZeros64(m)
			e.tickers[w<<6|b].t.Tick(e.now)
			m = e.awake[w] &^ (2<<b - 1)
		}
	}
	e.now++
}

// skipTarget reports the cycle Run may jump to without executing the
// intervening cycles, and whether such a jump is possible. A jump is legal
// only when no event is due at the current cycle and every awake ticker
// proves itself idle; it lands on the earliest of the next event, any awake
// waker's deadline, and limit (Run's cycle budget). Sleeping tickers are
// idle by Sleep's contract and are not asked.
func (e *Engine) skipTarget(limit uint64) (uint64, bool) {
	if e.noIdleSkip {
		return 0, false
	}
	target := limit
	if at, ok := e.sched.next(); ok {
		if at <= e.now {
			return 0, false // work is due this cycle
		} else if at < target {
			target = at
		}
	}
	if target <= e.now {
		return 0, false
	}
	for w, m := range e.awake {
		for ; m != 0; m &= m - 1 {
			r := &e.tickers[w<<6|bits.TrailingZeros64(m)]
			if r.idle == nil || !r.idle.Idle() {
				return 0, false
			}
			if r.wake != nil {
				if at, ok := r.wake.WakeAt(e.now); ok && at < target {
					if at <= e.now {
						return 0, false
					}
					target = at
				}
			}
		}
	}
	return target, true
}

// Run steps the clock until pred returns true, the interrupt poll aborts
// (SetInterrupt), or maxCycles elapse (a budget reaching past the last
// representable cycle runs to that cycle). It returns the number of cycles
// executed and whether the predicate was satisfied.
//
// Quiescent stretches — every awake ticker idle, no event due — are
// fast-forwarded: the clock jumps to the next event (or waker deadline, or
// the cycle budget) in one assignment. Skipped cycles count toward
// maxCycles exactly as if they had been stepped, and pred is next observed
// at the skipped-to cycle; since no component state can change during a
// quiescent stretch, pred could not have flipped at any skipped cycle.
func (e *Engine) Run(maxCycles uint64, pred func() bool) (cycles uint64, done bool) {
	start := e.now
	limit := start + maxCycles
	if limit < start {
		limit = math.MaxUint64
	}
	for e.now < limit {
		if pred != nil && pred() {
			return e.now - start, true
		}
		if e.checkInterrupt() {
			return e.now - start, false
		}
		if target, ok := e.skipTarget(limit); ok {
			e.now = target
			continue
		}
		e.Step()
	}
	if pred != nil && pred() {
		return e.now - start, true
	}
	return e.now - start, false
}

// RunE is Run with structured failure recovery: a *ProtocolError raised by
// any event callback or ticker (protocol controllers via Failf, the
// Watchdog) stops the clock at the failing cycle and is returned as err
// instead of unwinding through the caller, as is an abort requested by the
// interrupt poll (SetInterrupt). Any other panic propagates unchanged —
// only diagnosed protocol failures are converted.
func (e *Engine) RunE(maxCycles uint64, pred func() bool) (cycles uint64, done bool, err error) {
	start := e.now
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(*ProtocolError)
			if !ok {
				panic(r)
			}
			cycles, done, err = e.now-start, false, pe
		}
	}()
	cycles, done = e.Run(maxCycles, pred)
	if e.interruptErr != nil {
		err = e.interruptErr
		e.interruptErr = nil
	}
	return cycles, done, err
}

// Pending reports the number of outstanding scheduled events.
func (e *Engine) Pending() int { return e.sched.len() }
