package sim

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestRunERecoversProtocolError(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func(now uint64) {
		Failf("testcomp", now, "state excerpt", "bad message %d", 7)
	})
	cycles, done, err := e.RunE(100, nil)
	if err == nil {
		t.Fatal("RunE returned no error")
	}
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *ProtocolError", err)
	}
	if pe.Component != "testcomp" || pe.Cycle != 3 {
		t.Errorf("ProtocolError = %q at cycle %d, want testcomp at 3", pe.Component, pe.Cycle)
	}
	if !strings.Contains(pe.Error(), "bad message 7") || !strings.Contains(pe.Error(), "state excerpt") {
		t.Errorf("Error() missing message or state: %q", pe.Error())
	}
	if done {
		t.Error("done = true on a failed run")
	}
	if cycles != 3 {
		t.Errorf("cycles = %d, want 3", cycles)
	}
	// The engine stays usable after recovery.
	if c, _ := e.Run(5, nil); c != 5 {
		t.Errorf("post-recovery Run advanced %d cycles, want 5", c)
	}
}

// failTicker records its ticks and fails once, in its tick at cycle failAt.
type failTicker struct {
	countTicker
	failAt uint64
	failed bool
}

func (f *failTicker) Tick(now uint64) {
	f.countTicker.Tick(now)
	if now == f.failAt && !f.failed {
		f.failed = true
		Failf(f.name, now, "", "tick failure")
	}
}

// A failure in the tick phase leaves that cycle half ticked. The next step
// finishes it: the tickers before the failing one, which already ticked,
// and the failing one do not tick again, and the ones after it do.
func TestRunERecoversTickPhaseError(t *testing.T) {
	e := NewEngine()
	a := &countTicker{name: "a"}
	b := &failTicker{countTicker: countTicker{name: "b"}, failAt: 5}
	c := &countTicker{name: "c"}
	e.Register(a)
	e.Register(b)
	e.Register(c)
	cycles, _, err := e.RunE(100, nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) || pe.Component != "b" || pe.Cycle != 5 || cycles != 5 {
		t.Fatalf("RunE = %d cycles, err %v; want b failing at cycle 5", cycles, err)
	}
	if n, _ := e.Run(3, nil); n != 3 {
		t.Errorf("post-recovery Run advanced %d cycles, want 3", n)
	}
	want := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, tk := range []*countTicker{a, &b.countTicker, c} {
		if !slices.Equal(tk.ticks, want) {
			t.Errorf("%s ticked at %v, want %v", tk.name, tk.ticks, want)
		}
	}
}

// A failing ticker that was the last one awake must not let Run
// fast-forward out of the unfinished cycle, which would skip the event
// phase of the cycle it lands on.
func TestRunEFinishesTickPhaseBeforeSkipping(t *testing.T) {
	e := NewEngine()
	var ticks, fired []uint64
	var b int
	b = e.Register(tickFunc(func(now uint64) {
		ticks = append(ticks, now)
		if now == 2 {
			e.Sleep(b, math.MaxUint64)
			Failf("b", now, "", "tick failure")
		}
	}))
	e.Schedule(9, func(now uint64) { fired = append(fired, now); e.Wake(b) })
	if _, _, err := e.RunE(100, nil); err == nil {
		t.Fatal("RunE returned no error")
	}
	e.Run(10, nil)
	if !slices.Equal(fired, []uint64{9}) {
		t.Errorf("event fired at %v, want [9]", fired)
	}
	if want := []uint64{0, 1, 2, 9, 10, 11}; !slices.Equal(ticks, want) {
		t.Errorf("b ticked at %v, want %v", ticks, want)
	}
}

func TestRunEPropagatesForeignPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func(uint64) { panic("not a protocol error") })
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("foreign panic was swallowed")
		}
	}()
	e.RunE(100, nil)
}

func TestWatchdogFiresOnSilence(t *testing.T) {
	e := NewEngine()
	w := NewWatchdog(e, 50)
	w.AddDump("stuckcomp", func() string { return "txn pending on 0xbeef" })
	w.AddDump("idlecomp", func() string { return "" })
	_, _, err := e.RunE(1000, nil)
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("watchdog did not fire: err=%v", err)
	}
	if pe.Component != "watchdog" {
		t.Errorf("component = %q, want watchdog", pe.Component)
	}
	if !strings.Contains(pe.State, "stuckcomp") || !strings.Contains(pe.State, "0xbeef") {
		t.Errorf("dump missing stuck component: %q", pe.State)
	}
	if strings.Contains(pe.State, "idlecomp") {
		t.Errorf("dump includes idle component: %q", pe.State)
	}
}

func TestWatchdogStaysQuietWithHeartbeats(t *testing.T) {
	e := NewEngine()
	NewWatchdog(e, 50)
	// A component that makes progress every 40 cycles.
	var beat func(uint64)
	beat = func(uint64) {
		e.Progress()
		e.Schedule(40, beat)
	}
	e.Schedule(1, beat)
	if _, _, err := e.RunE(10_000, nil); err != nil {
		t.Fatalf("watchdog fired despite heartbeats: %v", err)
	}
}
