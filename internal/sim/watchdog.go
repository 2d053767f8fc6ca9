package sim

import (
	"fmt"
	"math"
	"strings"
)

// Watchdog is a forward-progress monitor: a registered Ticker fed by
// per-component heartbeats (accelerator op retirement, MSHR frees, link
// deliveries — any event that represents real protocol progress, as opposed
// to a retry spinning in place). If no heartbeat arrives for a full window
// of cycles the watchdog halts the run with a ProtocolError whose State
// carries a diagnostic dump collected from every registered provider, so a
// wedged coherence protocol is caught and named instead of silently burning
// the remaining cycle budget.
//
// Deadlocks (nothing scheduled, nothing delivered) and livelocks (retry
// loops that keep the event queue busy without retiring work) both trip it,
// because heartbeats are tied to completions, not to event activity.
type Watchdog struct {
	eng    *Engine
	tick   int // engine ticker index: asleep until the trip deadline
	window uint64
	last   uint64 // cycle of the most recent heartbeat

	dumps []dumpProvider
}

type dumpProvider struct {
	name string
	fn   func() string
}

// NewWatchdog registers a watchdog on eng with the given window (cycles of
// silence tolerated before the run is declared stuck). It installs itself as
// the engine's progress listener, so components that call Engine.Progress
// feed it without knowing it exists.
func NewWatchdog(eng *Engine, window uint64) *Watchdog {
	w := &Watchdog{eng: eng, window: window, last: eng.Now()}
	eng.SetProgressListener(w.Beat)
	w.tick = eng.Register(w)
	eng.Sleep(w.tick, w.deadline())
	return w
}

// Name implements Ticker.
func (w *Watchdog) Name() string { return "watchdog" }

// deadline returns the cycle at which the current silence exceeds the
// window, the watchdog's wake cycle: it sleeps until then, so a wedged run
// trips at exactly the same cycle, in the same tick order, under skipping
// as under per-cycle stepping. A heartbeat moves the wake cycle with the
// deadline, so the sleeping watchdog wakes only to trip and adds no
// stepped cycle to a healthy run. A window of 0 has no deadline, and one
// past the last representable cycle saturates there, which is none either.
func (w *Watchdog) deadline() uint64 {
	if w.window == 0 {
		return math.MaxUint64
	}
	return SatAdd(SatAdd(w.last, w.window), 1)
}

// Window returns the configured stall window in cycles.
func (w *Watchdog) Window() uint64 { return w.window }

// Beat records forward progress at the current cycle and sleeps the
// watchdog until the new deadline.
func (w *Watchdog) Beat() {
	w.last = w.eng.now
	w.eng.Sleep(w.tick, w.deadline())
}

// AddDump registers a diagnostic provider queried when the watchdog fires
// (and by Dump). Providers returning "" are omitted from the dump, so
// components with nothing outstanding stay silent.
func (w *Watchdog) AddDump(name string, fn func() string) {
	w.dumps = append(w.dumps, dumpProvider{name: name, fn: fn})
}

// Tick implements Ticker: it trips once the silence exceeds the window and
// otherwise (it ticks on every cycle with idle-skip off) sleeps until the
// current deadline.
func (w *Watchdog) Tick(now uint64) {
	if w.window == 0 || now-w.last <= w.window {
		w.eng.Sleep(w.tick, w.deadline())
		return
	}
	Failf("watchdog", now, w.Dump(),
		"no forward progress for %d cycles (last heartbeat at cycle %d)",
		now-w.last, w.last)
}

// Dump collects the diagnostic state of every registered provider plus the
// engine's own view (current cycle, pending event count).
func (w *Watchdog) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle=%d pending_events=%d last_heartbeat=%d\n",
		w.eng.Now(), w.eng.Pending(), w.last)
	for _, d := range w.dumps {
		s := d.fn()
		if s == "" {
			continue
		}
		fmt.Fprintf(&b, "[%s]\n%s", d.name, s)
		if !strings.HasSuffix(s, "\n") {
			b.WriteByte('\n')
		}
	}
	return b.String()
}
