package dram

// Coverage for the controller's diagnostic and wiring surface: the ticker
// identity, the idle-skip predicate, watchdog state dumps, and the
// fault-injection latency path.

import (
	"strings"
	"testing"

	"fusion/internal/faults"
)

func TestNameAndIdle(t *testing.T) {
	eng, d, _, _ := setup()
	if d.Name() != "dram" {
		t.Fatalf("Name() = %q", d.Name())
	}
	if !d.Idle() {
		t.Fatal("empty controller not idle")
	}
	d.Submit(Request{Addr: 0x1000, Done: func(uint64) {}})
	if d.Idle() {
		t.Fatal("controller idle with a queued command")
	}
	run(eng, 400)
	if !d.Idle() {
		t.Fatal("controller not idle after draining")
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
