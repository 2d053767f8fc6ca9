package sim

import (
	"errors"
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
