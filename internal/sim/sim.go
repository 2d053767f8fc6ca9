// Package sim provides the discrete, cycle-driven simulation kernel used by
// every timed component in the Fusion simulator.
//
// The kernel advances a global clock one cycle at a time. Each cycle has two
// phases:
//
//  1. The event phase: callbacks scheduled for the current cycle run in
//     scheduling order (stable FIFO among events that share a cycle).
//  2. The tick phase: every registered Ticker runs once, in registration
//     order.
//
// Both orderings are fully deterministic, which matters for a coherence
// simulator: two runs with the same inputs produce bit-identical message
// interleavings and statistics.
//
// Run additionally fast-forwards over quiescent stretches: when every
// registered Ticker declares itself idle (see IdleTicker) and no event is
// due, the clock jumps straight to the next event instead of executing
// empty cycles. The jump is invisible to components — cycle counts, event
// ordering, predicate observation points, and watchdog trip cycles are all
// identical to per-cycle stepping.
package sim

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
// the whole engine.
type IdleTicker interface {
	Idle() bool
}

// Waker is optionally implemented by tickers that, even while idle, must be
// ticked again no later than a specific future cycle (the watchdog's trip
// deadline is the canonical case). WakeAt returns that cycle; ok=false
// means the ticker imposes no deadline. A quiescence fast-forward never
// jumps past any waker's deadline.
type Waker interface {
	WakeAt(now uint64) (at uint64, ok bool)
}

// EventHandler is the closure-free event target. Hot components (link
// delivery, fabric delivery, directory request intake, lease expiry)
// implement it once; ScheduleCall then carries only an interface pointer, a
// handler-private opcode, and one integer argument — no func allocation per
// event. Cold paths keep using Schedule with closures.
type EventHandler interface {
	HandleEvent(now uint64, op uint8, arg uint64)
}

// event is a scheduled callback: either a closure (fn) or a closure-free
// handler dispatch (h/op/arg) — exactly one of fn and h is non-nil.
type event struct {
	at  uint64
	seq uint64 // tie-break: schedule order
	fn  func(now uint64)
	h   EventHandler
	op  uint8
	arg uint64
}

// eventHeap is a binary min-heap of events ordered by (at, seq). It is
// monomorphic on purpose: the previous container/heap implementation boxed
// every event into an interface{} on Push and Pop, which both allocated and
// kept retired closures reachable. Pop zeroes the vacated slot so the
// popped event's fn is collectable as soon as it has run.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !hh.less(i, parent) {
			break
		}
		hh[i], hh[parent] = hh[parent], hh[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	hh := *h
	top := hh[0]
	n := len(hh) - 1
	hh[0] = hh[n]
	hh[n] = event{} // zero the slot so the retired closure is GC-able
	hh = hh[:n]
	*h = hh
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && hh.less(l, smallest) {
			smallest = l
		}
		if r < n && hh.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		hh[i], hh[smallest] = hh[smallest], hh[i]
		i = smallest
	}
	return top
}

// Engine is the simulation clock and event queue. It is not safe for
// concurrent use; each simulation is single-threaded by design (a sweep
// parallelizes across engines, never within one).
type Engine struct {
	now     uint64
	seq     uint64
	sched   scheduler
	tickers []Ticker

	// idlers[i] is tickers[i]'s IdleTicker view, nil if not implemented.
	// busyTickers counts the nil entries: fast-forwarding requires every
	// ticker to be able to prove idleness, so one opaque ticker pins the
	// engine to per-cycle stepping.
	idlers      []IdleTicker
	busyTickers int
	wakers      []Waker
	noIdleSkip  bool

	// Stopped is set by Stop; Run returns at the end of the current cycle.
	stopped bool

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

// NewEngine returns an engine with the clock at cycle 0, using the default
// time-wheel scheduler (see SetScheduler).
func NewEngine() *Engine {
	return &Engine{sched: newWheelScheduler()}
}

// SetScheduler selects the event-queue implementation: SchedulerWheel (the
// default — O(1) push/pop through a calendar of cycle buckets) or
// SchedulerHeap (the reference binary heap). The two are observationally
// identical; the knob exists for A/B validation and as an escape hatch.
// It must be called before any event is scheduled.
func (e *Engine) SetScheduler(kind string) {
	if e.sched.len() != 0 {
		Failf("sim.engine", e.now, "", "SetScheduler(%q) with %d events pending", kind, e.sched.len())
	}
	switch kind {
	case SchedulerHeap:
		e.sched = &heapScheduler{}
	case SchedulerWheel:
		e.sched = newWheelScheduler()
	default:
		Failf("sim.engine", e.now, "", "unknown scheduler %q (want %q or %q)", kind, SchedulerHeap, SchedulerWheel)
	}
	e.sched.advance(e.now)
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// Register adds a Ticker. Tick order is registration order.
func (e *Engine) Register(t Ticker) {
	e.tickers = append(e.tickers, t)
	it, ok := t.(IdleTicker)
	if !ok {
		e.busyTickers++
	}
	e.idlers = append(e.idlers, it)
	if w, ok := t.(Waker); ok {
		e.wakers = append(e.wakers, w)
	}
}

// SetIdleSkip enables or disables quiescence fast-forwarding in Run. It is
// on by default; disabling it forces per-cycle stepping, which is useful
// for A/B-validating that a skip never changes simulation results.
func (e *Engine) SetIdleSkip(enabled bool) { e.noIdleSkip = !enabled }

// bumpSeq returns the next event sequence number. seq only ever needs to
// order events that coexist in the queue, so it rebases to zero whenever
// the queue drains. Wraparound would otherwise (after 2^64 schedules)
// violate the FIFO tie-break; with rebasing, a wrap requires 2^64 events
// pending at once, which cannot be represented in memory. See
// TestSeqRebasesWhenHeapDrains / TestSeqOrderingNearMax.
func (e *Engine) bumpSeq() uint64 {
	if e.sched.len() == 0 {
		e.seq = 0
	}
	e.seq++
	return e.seq
}

// Schedule runs fn delay cycles from now. A delay of zero runs fn later in
// the current cycle's event phase if that phase is still draining, otherwise
// at the start of the next cycle's event phase.
func (e *Engine) Schedule(delay uint64, fn func(now uint64)) {
	e.sched.push(event{at: e.now + delay, seq: e.bumpSeq(), fn: fn})
}

// ScheduleAt runs fn at absolute cycle at, which must not be in the past.
func (e *Engine) ScheduleAt(at uint64, fn func(now uint64)) {
	if at < e.now {
		Failf("sim.engine", e.now, "", "ScheduleAt(%d) is in the past", at)
	}
	e.sched.push(event{at: at, seq: e.bumpSeq(), fn: fn})
}

// ScheduleCall runs h.HandleEvent(now, op, arg) delay cycles from now. It is
// the closure-free twin of Schedule: the event carries no func value, so a
// steady-state schedule allocates nothing once the heap's backing array has
// warmed up. op and arg are opaque to the engine.
func (e *Engine) ScheduleCall(delay uint64, h EventHandler, op uint8, arg uint64) {
	e.sched.push(event{at: e.now + delay, seq: e.bumpSeq(), h: h, op: op, arg: arg})
}

// ScheduleCallAt is ScheduleCall with an absolute cycle, which must not be
// in the past.
func (e *Engine) ScheduleCallAt(at uint64, h EventHandler, op uint8, arg uint64) {
	if at < e.now {
		Failf("sim.engine", e.now, "", "ScheduleCallAt(%d) is in the past", at)
	}
	e.sched.push(event{at: at, seq: e.bumpSeq(), h: h, op: op, arg: arg})
}

// Stop makes Run return at the end of the current cycle. A Stop issued
// before Run is honored: the next Run returns immediately, consuming the
// stop (so a subsequent Run proceeds normally).
func (e *Engine) Stop() { e.stopped = true }

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
	// Let the scheduler catch up with the clock (the wheel promotes
	// overflow events that entered the near horizon; the heap ignores it).
	e.sched.advance(e.now)
	// Event phase: drain everything scheduled for the current cycle,
	// including events scheduled with zero delay while draining.
	for {
		ev, ok := e.sched.popDue(e.now)
		if !ok {
			break
		}
		if ev.fn != nil {
			ev.fn(e.now)
		} else {
			ev.h.HandleEvent(e.now, ev.op, ev.arg)
		}
	}
	// Tick phase.
	for _, t := range e.tickers {
		t.Tick(e.now)
	}
	e.now++
}

// skipTarget reports the cycle Run may jump to without executing the
// intervening cycles, and whether such a jump is possible. A jump is legal
// only when no event is due at the current cycle and every ticker proves
// itself idle; it lands on the earliest of the next event, any waker's
// deadline, and limit (Run's cycle budget).
func (e *Engine) skipTarget(limit uint64) (uint64, bool) {
	if e.noIdleSkip || e.busyTickers > 0 {
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
	for _, it := range e.idlers {
		if !it.Idle() {
			return 0, false
		}
	}
	for _, w := range e.wakers {
		if at, ok := w.WakeAt(e.now); ok && at < target {
			if at <= e.now {
				return 0, false
			}
			target = at
		}
	}
	return target, true
}

// Run steps the clock until pred returns true, the engine is stopped, or
// maxCycles elapse. It returns the number of cycles executed and whether the
// predicate was satisfied. A stop requested before Run (or during it) is
// consumed on return, so the engine is immediately runnable again.
//
// Quiescent stretches — every ticker idle, no event due — are
// fast-forwarded: the clock jumps to the next event (or waker deadline, or
// the cycle budget) in one assignment. Skipped cycles count toward
// maxCycles exactly as if they had been stepped, and pred is next observed
// at the skipped-to cycle; since no component state can change during a
// quiescent stretch, pred could not have flipped at any skipped cycle.
func (e *Engine) Run(maxCycles uint64, pred func() bool) (cycles uint64, done bool) {
	start := e.now
	limit := start + maxCycles
	for e.now < limit {
		if pred != nil && pred() {
			return e.now - start, true
		}
		if e.stopped {
			e.stopped = false
			return e.now - start, false
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
			e.stopped = false
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
