package dram

// Coverage for the controller's diagnostic and wiring surface: the ticker
// identity, when it sleeps, watchdog state dumps, and the fault-injection
// latency path.

import (
	"strings"
	"testing"

	"fusion/internal/faults"
)

// TestNameAndIdle: the controller sleeps exactly while its queues are
// empty, so Run jumps over an empty controller and steps every cycle while
// a queued command waits out its channel's burst.
func TestNameAndIdle(t *testing.T) {
	eng, d, _, _ := setup()
	if d.Name() != "dram" {
		t.Fatalf("Name() = %q", d.Name())
	}
	if eng.Run(100, nil); eng.Steps() != 0 {
		t.Fatalf("empty controller kept the engine stepping for %d cycles", eng.Steps())
	}
	d.Submit(Request{Addr: 0x1000, Done: func(uint64) {}})
	d.Submit(Request{Addr: 0x1000, Done: func(uint64) {}}) // same channel: waits out the burst
	burst := uint64(DefaultConfig().BurstCycles)
	if eng.Run(burst, nil); eng.Steps() != burst || d.QueueOccupancy() != 1 {
		t.Fatalf("with a command queued behind a burst, %d of %d cycles stepped and %d queued; want all and 1",
			eng.Steps(), burst, d.QueueOccupancy())
	}
	run(eng, 400)
	steps := eng.Steps()
	if eng.Run(100, nil); eng.Steps() != steps || d.QueueOccupancy() != 0 {
		t.Fatalf("drained controller (%d queued) kept the engine stepping for %d cycles",
			d.QueueOccupancy(), eng.Steps()-steps)
	}
}

func TestDumpState(t *testing.T) {
	_, d, _, _ := setup()
	if d.DumpState() != "" {
		t.Fatalf("empty dump = %q", d.DumpState())
	}
	d.Submit(Request{Addr: 0x2000, Done: func(uint64) {}})
	dump := d.DumpState()
	if !strings.Contains(dump, "queued") || !strings.Contains(dump, "0x2000") {
		t.Fatalf("dump does not describe the queued command: %q", dump)
	}
}

func TestFaultInjectorSpikesLatency(t *testing.T) {
	// Every command spikes: the faulted run must finish strictly later
	// than the clean run and count its spikes.
	var cleanDone, spikedDone uint64

	eng, d, _, _ := setup()
	d.Submit(Request{Addr: 0x1000, Done: func(now uint64) { cleanDone = now }})
	run(eng, 1000)

	eng2, d2, st2, _ := setup()
	d2.SetInjector(faults.NewInjector(faults.Plan{
		Seed: 7, DRAMSpikeProb: 1.0, DRAMSpikeExtra: 200,
	}))
	d2.Submit(Request{Addr: 0x1000, Done: func(now uint64) { spikedDone = now }})
	run(eng2, 1000)

	if cleanDone == 0 || spikedDone == 0 {
		t.Fatalf("requests did not complete (clean %d, spiked %d)", cleanDone, spikedDone)
	}
	if spikedDone <= cleanDone {
		t.Fatalf("spiked completion %d not later than clean %d", spikedDone, cleanDone)
	}
	if st2.Get("dram.fault_spikes") == 0 || d2.FaultSpikes() != st2.Get("dram.fault_spikes") {
		t.Fatalf("fault_spikes = %d, FaultSpikes() = %d", st2.Get("dram.fault_spikes"), d2.FaultSpikes())
	}
}
