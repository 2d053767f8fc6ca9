// Package sim provides the discrete, cycle-driven simulation kernel used by
// every timed component in the Fusion simulator.
//
// The kernel advances a global clock one cycle at a time. Each cycle has two
// phases:
//
//  1. The event phase: callbacks scheduled for the current cycle run in
//     scheduling order (stable FIFO among events that share a cycle).
//  2. The tick phase: every awake Ticker runs once, in registration
//     order. A ticker with nothing to do sleeps (see Engine.Sleep),
//     optionally until a wake cycle, and is not called until that cycle
//     comes or the component that hands it work wakes it.
//
// Both orderings are fully deterministic, which matters for a coherence
// simulator: two runs with the same inputs produce bit-identical message
// interleavings and statistics.
//
// Run additionally fast-forwards over quiescent stretches: when no ticker
// is awake and nothing is due, the clock jumps straight to the earliest of
// the next event and the earliest wake cycle instead of executing empty
// cycles. The jump is invisible to components — cycle counts, event
// ordering, predicate observation points, and watchdog trip cycles are all
// identical to per-cycle stepping.
package sim

import (
	"math"
	"math/bits"
	"slices"
)

// Ticker is a component that does work every cycle: drains its inbound
// queues, advances its pipeline, and sends messages.
type Ticker interface {
	// Name identifies the component in traces and error messages.
	Name() string
	// Tick performs one cycle of work at time now.
	Tick(now uint64)
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

// Engine is the simulation clock and event queue. It is not safe for
// concurrent use; each simulation is single-threaded by design (a sweep
// parallelizes across engines, never within one).
type Engine struct {
	now   uint64
	sched *wheelScheduler

	// tickers in registration order, and awake with one bit per ticker,
	// set unless it sleeps (Sleep). Only awake tickers tick, and one awake
	// ticker pins the engine to per-cycle stepping. wakeAt holds each
	// sleeper's wake cycle (MaxUint64: none). nextWake is never later than
	// their minimum, and equals it after Step's wake pass and skipTarget;
	// a Wake that cancels the earliest, or a Sleep that moves it later,
	// leaves it early, which keeps both O(1). ticking is the index of the
	// ticker whose Tick is running, -1 outside the tick phase; after a Tick
	// fails (RunE), it stays on that ticker until Step finishes the cycle.
	tickers    []Ticker
	awake      []uint64
	wakeAt     []uint64
	nextWake   uint64
	ticking    int
	steps      uint64
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
	return &Engine{sched: newWheelScheduler(), nextWake: math.MaxUint64, ticking: -1}
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Register adds a Ticker, awake, and returns its index for Sleep and Wake.
// Tick order is registration order.
func (e *Engine) Register(t Ticker) int {
	i := len(e.tickers)
	e.tickers = append(e.tickers, t)
	e.wakeAt = append(e.wakeAt, math.MaxUint64)
	if i>>6 == len(e.awake) {
		e.awake = append(e.awake, 0)
	}
	e.Wake(i)
	return i
}

// Sleep takes ticker i out of the tick phase until Wake(i) or, if at is not
// MaxUint64, until cycle at, whose tick phase it joins. A ticker may sleep
// only while its Tick is a no-op until then, and whatever hands it work
// must wake it. With idle-skip disabled Sleep does nothing, so every
// ticker ticks on every cycle.
func (e *Engine) Sleep(i int, at uint64) {
	if e.noIdleSkip {
		return
	}
	e.awake[i>>6] &^= 1 << (i & 63)
	e.wakeAt[i] = at
	e.nextWake = min(e.nextWake, at)
}

// Wake returns ticker i to the tick phase and cancels its wake cycle. It
// reports whether i still ticks in the current cycle: it does when woken
// in the event phase or by a ticker registered before it, and does not
// when woken by itself or by a later ticker (it ticks in the next cycle).
func (e *Engine) Wake(i int) bool {
	e.awake[i>>6] |= 1 << (i & 63)
	e.wakeAt[i] = math.MaxUint64
	return i > e.ticking
}

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
// manual Step loops retain strict per-cycle semantics. After a Tick failed
// (RunE), Step finishes that cycle instead: it ticks only the awake
// tickers after the failing one, with no event phase and no wake pass.
func (e *Engine) Step() {
	if e.ticking < 0 {
		// Let the wheel catch up with the clock (promoting overflow events
		// that entered the near horizon), then run the event phase:
		// everything scheduled for the current cycle, including events
		// scheduled with zero delay while draining.
		e.sched.advance(e.now)
		e.sched.fire(e.now)
		if e.nextWake <= e.now {
			for i, at := range e.wakeAt {
				if at <= e.now {
					e.Wake(i)
				}
			}
			e.nextWake = slices.Min(e.wakeAt)
		}
	}
	// Tick phase: the awake tickers in registration order, from the first
	// one after ticking. The set is re-read after every Tick, so a ticker
	// woken by an earlier one still ticks in this cycle.
	first := e.ticking + 1
	for w := first >> 6; w < len(e.awake); w++ {
		m := e.awake[w]
		if w == first>>6 {
			m &^= 1<<(first&63) - 1
		}
		for m != 0 {
			b := bits.TrailingZeros64(m)
			e.ticking = w<<6 | b
			e.tickers[e.ticking].Tick(e.now)
			m = e.awake[w] &^ (2<<b - 1)
		}
	}
	e.ticking = -1
	e.steps++
	e.now++
}

// Steps returns the number of cycles stepped so far; the cycles a
// fast-forward skips are not counted.
func (e *Engine) Steps() uint64 { return e.steps }

// skipTarget reports the cycle Run may jump to without executing the
// intervening cycles, and whether such a jump is possible. A jump is legal
// only when no ticker is awake and nothing is due at the current cycle; it
// lands on the earliest of the next event, the earliest wake cycle and
// limit (Run's cycle budget).
func (e *Engine) skipTarget(limit uint64) (uint64, bool) {
	if e.noIdleSkip || e.ticking >= 0 {
		return 0, false // the current cycle's tick phase is unfinished
	}
	for _, m := range e.awake {
		if m != 0 {
			return 0, false
		}
	}
	target := limit
	if at, ok := e.sched.next(); ok {
		if at <= e.now {
			return 0, false
		}
		target = min(target, at)
	}
	if e.nextWake < target {
		e.nextWake = slices.Min(e.wakeAt) // drop wake cycles Wake cancelled
		target = min(target, e.nextWake)
	}
	return target, target > e.now
}

// Run steps the clock until pred returns true, the interrupt poll aborts
// (SetInterrupt), or maxCycles elapse (a budget reaching past the last
// representable cycle runs to that cycle). It returns the number of cycles
// executed and whether the predicate was satisfied.
//
// Quiescent stretches — no ticker awake, nothing due — are fast-forwarded:
// the clock jumps to the next event (or wake cycle, or the cycle budget) in
// one assignment. Skipped cycles count toward maxCycles exactly as if they
// had been stepped, and pred is next observed at the skipped-to cycle;
// since no component state can change during a quiescent stretch, pred
// could not have flipped at any skipped cycle.
func (e *Engine) Run(maxCycles uint64, pred func() bool) (cycles uint64, done bool) {
	start := e.now
	limit := SatAdd(start, maxCycles)
	for e.now < limit {
		if pred != nil && pred() {
			return e.now - start, true
		}
		if e.checkInterrupt() {
			return e.now - start, false
		}
		if target, ok := e.skipTarget(limit); ok {
			// Move the wheel's horizon with the clock, promoting what the
			// next Step would, so an event scheduled before that Step is
			// checked against the current horizon.
			e.now = target
			e.sched.advance(target)
			continue
		}
		e.Step()
	}
	if pred != nil && pred() {
		return e.now - start, true
	}
	return e.now - start, false
}

// SatAdd is a + b, saturated at the last representable cycle, which no run
// reaches: a delay or budget that would wrap past it ends there instead of
// landing in the past.
func SatAdd(a, b uint64) uint64 {
	if a+b < a {
		return math.MaxUint64
	}
	return a + b
}

// RunE is Run with structured failure recovery: a *ProtocolError raised by
// any event callback or ticker (protocol controllers via Failf, the
// Watchdog) stops the clock at the failing cycle and is returned as err
// instead of unwinding through the caller, as is an abort requested by the
// interrupt poll (SetInterrupt). Any other panic propagates unchanged —
// only diagnosed protocol failures are converted. A later step resumes the
// failing cycle where it stopped: an event phase with the events after the
// failing one, or a tick phase with the tickers after it (Step).
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
