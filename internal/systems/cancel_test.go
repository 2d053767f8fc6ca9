package systems

// Cancellation and budget tests: a canceled context aborts a run promptly
// with a structured, cause-carrying error; a sweep stops on its first
// failure instead of burning the remaining cells; an exhausted cycle
// budget reports itself as a diagnosable timeout rather than a bare
// string.

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"fusion/internal/faults"
	"fusion/internal/sim"
	"fusion/internal/workloads"
)

func TestRunCtxCancelAbortsPromptly(t *testing.T) {
	b := workloads.Get("fft")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := RunCtx(ctx, b, DefaultConfig(Fusion))
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			// The run legitimately finished before the cancel landed; the
			// cancellation path is still covered by the pre-canceled case
			// below, but on this machine the race went the fast way.
			t.Skip("run completed before cancellation landed")
		}
		assertCancelError(t, err, sim.ComponentCanceled, context.Canceled)
	case <-time.After(30 * time.Second):
		t.Fatal("canceled run did not return within 30s")
	}
}

func TestRunCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, workloads.Get("adpcm"), DefaultConfig(Fusion))
	if err == nil {
		t.Fatal("pre-canceled context did not abort the run")
	}
	assertCancelError(t, err, sim.ComponentCanceled, context.Canceled)
}

func TestRunCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	cfg := DefaultConfig(Fusion)
	cfg.WatchdogCycles = 1_000_000 // arm the watchdog so the abort carries its dump
	_, err := RunCtx(ctx, workloads.Get("fft"), cfg)
	if err == nil {
		t.Skip("run completed inside a 5ms deadline")
	}
	assertCancelError(t, err, sim.ComponentDeadline, context.DeadlineExceeded)
	var pe *sim.ProtocolError
	errors.As(err, &pe)
	if pe.State == "" {
		t.Error("deadline abort with an armed watchdog carried no diagnostic dump")
	}
}

func assertCancelError(t *testing.T, err error, component string, cause error) {
	t.Helper()
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("abort error %v is not a *sim.ProtocolError", err)
	}
	if pe.Component != component {
		t.Fatalf("abort component = %q, want %q", pe.Component, component)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("abort error %v does not unwrap to %v", err, cause)
	}
	if !sim.IsCancellation(err) {
		t.Fatalf("IsCancellation(%v) = false", err)
	}
}

// TestMaxBudgetCompletes: budgets and watchdog windows that reach past the
// last representable cycle (Spec.Validate accepts them, so a fusiond
// request may send them) saturate there: the run completes with the
// default run's cycle count instead of exhausting a wrapped budget.
func TestMaxBudgetCompletes(t *testing.T) {
	b := workloads.Get("fft")
	want, err := RunCtx(context.Background(), b, DefaultConfig(Fusion))
	if err != nil {
		t.Fatal(err)
	}
	for _, max := range []uint64{math.MaxUint64, math.MaxUint64 - 5} {
		cfg := DefaultConfig(Fusion)
		cfg.MaxCycles = max
		cfg.WatchdogCycles = max
		res, err := RunCtx(context.Background(), b, cfg)
		if err != nil {
			t.Fatalf("MaxCycles = WatchdogCycles = %d: %v", max, err)
		}
		if res.Cycles != want.Cycles {
			t.Fatalf("MaxCycles = WatchdogCycles = %d: %d cycles, want %d", max, res.Cycles, want.Cycles)
		}
	}
}

// TestBudgetExhaustionIsStructured: a run that cannot finish inside
// MaxCycles reports a ComponentBudget protocol error carrying the
// watchdog's diagnostic dump when one is armed.
func TestBudgetExhaustionIsStructured(t *testing.T) {
	cfg := DefaultConfig(Fusion)
	cfg.MaxCycles = 100 // no benchmark phase completes this fast
	cfg.WatchdogCycles = 50
	_, err := Run(workloads.Get("adpcm"), cfg)
	if err == nil {
		t.Fatal("a 100-cycle budget completed a benchmark phase")
	}
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("budget exhaustion error %v is not structured", err)
	}
	if pe.Component != sim.ComponentBudget {
		t.Fatalf("component = %q, want %q", pe.Component, sim.ComponentBudget)
	}
	if pe.State == "" {
		t.Error("budget error with an armed watchdog carried no diagnostic dump")
	}
	if sim.IsCancellation(err) {
		t.Error("budget exhaustion misclassified as a cancellation")
	}
}

// TestMaxCyclesBoundsTheRun: MaxCycles bounds the whole run, not each wait
// in it. At lease scale 1000, fft/fusion's waits each fit 2 M cycles, and
// its lease-lapse waits at the ends of the phases add up to 21.3 M; the run
// must stop with a budget error by cycle 2 M.
func TestMaxCyclesBoundsTheRun(t *testing.T) {
	cfg := DefaultConfig(Fusion)
	cfg.LeaseScale = 1000
	cfg.MaxCycles = 2_000_000
	res, err := Run(workloads.Get("fft"), cfg)
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) || pe.Component != sim.ComponentBudget {
		t.Fatalf("got %v (result %v), want a %s error", err, res != nil, sim.ComponentBudget)
	}
	if pe.Cycle > cfg.MaxCycles {
		t.Fatalf("budget error at cycle %d, past MaxCycles %d", pe.Cycle, cfg.MaxCycles)
	}
}

// TestHugeDRAMSpikeNeverSpeedsUp: a DRAM latency spike near 2^64 cycles
// saturates instead of wrapping into a speed-up, so fft/fusion with every
// command spiked never completes and stops at its cycle budget.
func TestHugeDRAMSpikeNeverSpeedsUp(t *testing.T) {
	cfg := DefaultConfig(Fusion)
	cfg.Faults = &faults.Plan{Seed: 1, DRAMSpikeProb: 1, DRAMSpikeExtra: math.MaxUint64 - 100}
	cfg.MaxCycles = 2_000_000
	res, err := Run(workloads.Get("fft"), cfg)
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) || pe.Component != sim.ComponentBudget {
		t.Fatalf("got %v (result %v), want a %s error", err, res != nil, sim.ComponentBudget)
	}
	if pe.Cycle > cfg.MaxCycles {
		t.Fatalf("budget error at cycle %d, past MaxCycles %d", pe.Cycle, cfg.MaxCycles)
	}
}

// TestRunAllCtxStopsOnFirstError: one poisoned cell must cancel the whole
// sweep — outstanding workers observe the cancel and the unstarted tail is
// skipped — and the returned error must be the poisoned cell (the root
// cause), never one of the cancellation knock-ons.
func TestRunAllCtxStopsOnFirstError(t *testing.T) {
	fft := workloads.Get("fft")
	adpcm := workloads.Get("adpcm")
	bad := DefaultConfig(Fusion)
	bad.MaxCycles = 100 // fails fast with a budget error
	items := []SweepItem{
		{Key: "slow-0", Bench: fft, Config: DefaultConfig(Fusion)},
		{Key: "poisoned", Bench: adpcm, Config: bad},
	}
	// A long tail that must be skipped once the poisoned cell fails.
	for i := 0; i < 30; i++ {
		items = append(items, SweepItem{Key: "tail", Bench: fft, Config: DefaultConfig(Fusion)})
	}
	start := time.Now()
	results, err := RunAllCtx(context.Background(), items, 2)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("sweep with a poisoned cell returned no error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("sweep error %v carries no key", err)
	}
	if se.Key != "poisoned" {
		t.Fatalf("sweep error names %q, want the root-cause cell \"poisoned\"", se.Key)
	}
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) || pe.Component != sim.ComponentBudget {
		t.Fatalf("root cause %v is not the budget failure", err)
	}
	completed := 0
	for _, r := range results {
		if r != nil {
			completed++
		}
	}
	if completed > 3 {
		t.Errorf("sweep kept executing after the failure: %d cells completed", completed)
	}
	// 32 fft-class cells sequentially would take tens of seconds; a prompt
	// stop finishes in a small fraction of that.
	if elapsed > 30*time.Second {
		t.Errorf("sweep took %v to stop after the first failure", elapsed)
	}
}

// TestRunAllCtxExternalCancel: canceling the caller's context stops the
// sweep and surfaces a cancellation error (there is no root cause to
// prefer).
func TestRunAllCtxExternalCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fft := workloads.Get("fft")
	items := []SweepItem{
		{Key: "a", Bench: fft, Config: DefaultConfig(Fusion)},
		{Key: "b", Bench: fft, Config: DefaultConfig(Shared)},
	}
	results, err := RunAllCtx(ctx, items, 2)
	if err == nil {
		t.Fatal("pre-canceled sweep returned no error")
	}
	if !sim.IsCancellation(err) {
		t.Fatalf("external cancel surfaced as %v, not a cancellation", err)
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("cell %d ran under a pre-canceled context", i)
		}
	}
}
