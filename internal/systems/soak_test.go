package systems

import (
	"testing"

	"fusion/internal/faults"
	"fusion/internal/workloads"
)

// TestSoakFaultInjection is the randomized robustness sweep: every system
// must absorb every randomized order-preserving fault plan with a perfect
// final-memory image and a quiet watchdog.
func TestSoakFaultInjection(t *testing.T) {
	sc := SoakConfig{Seeds: []uint64{1, 2, 3}, Paranoid: true}
	if testing.Short() {
		sc.Seeds = sc.Seeds[:1]
		sc.Benchmarks = []string{"adpcm"}
	}
	res := Soak(sc)
	for _, f := range res.Failures {
		t.Errorf("soak failure: %s", f)
	}
	if res.Runs == 0 {
		t.Fatal("soak executed no runs")
	}
	if res.FaultsInjected == 0 {
		t.Fatal("soak injected no faults — the sweep proved nothing")
	}
	t.Logf("soak: %d runs, %d faults injected", res.Runs, res.FaultsInjected)
}

// TestFaultedRunsDeterministic replays the same (benchmark, system, plan)
// twice and demands bit-identical cycle counts — the reproducibility
// contract that makes a failing soak cell debuggable from its plan alone.
func TestFaultedRunsDeterministic(t *testing.T) {
	plan := faults.RandomPlan(42)
	b := workloads.Get("adpcm")
	for _, kind := range []Kind{Scratch, Shared, Fusion, FusionDx} {
		cfg := DefaultConfig(kind)
		cfg.Faults = &plan
		cfg.WatchdogCycles = 2_000_000
		r1, err := Run(b, cfg)
		if err != nil {
			t.Fatalf("%v run 1: %v", kind, err)
		}
		r2, err := Run(b, cfg)
		if err != nil {
			t.Fatalf("%v run 2: %v", kind, err)
		}
		if r1.Cycles != r2.Cycles {
			t.Errorf("%v: same plan, different cycles: %d vs %d",
				kind, r1.Cycles, r2.Cycles)
		}
	}
}

// TestFaultsSlowButDontCorrupt checks both halves of the injector contract
// on one system: injected faults must cost cycles (the run gets slower, or
// at least not faster in a measurable way is not guaranteed — so only check
// not-faster is omitted) and must not change the final memory image.
func TestFaultsSlowButDontCorrupt(t *testing.T) {
	b := workloads.Get("fft")
	want := ExpectedVersions(b)

	base, err := Run(b, DefaultConfig(Fusion))
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Seed: 7,
		LinkJitterProb: 0.5, LinkJitterMax: 8,
		LinkStallProb: 0.3, LinkStallEvery: 512, LinkStallLen: 64,
		DRAMSpikeProb: 0.2, DRAMSpikeExtra: 300}
	cfg := DefaultConfig(Fusion)
	cfg.Faults = &plan
	cfg.WatchdogCycles = 2_000_000
	faulted, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Cycles <= base.Cycles {
		t.Errorf("heavy fault plan did not cost cycles: base %d, faulted %d",
			base.Cycles, faulted.Cycles)
	}
	if err := diffVersions(want, faulted.FinalVersions); err != nil {
		t.Errorf("faulted run corrupted memory: %v", err)
	}
	if faulted.Faults == 0 {
		t.Error("no faults recorded")
	}
}

// TestWatchdogQuietOnHealthyRuns arms a tight-ish watchdog on fault-free
// runs of all four systems; none may trip it.
func TestWatchdogQuietOnHealthyRuns(t *testing.T) {
	b := workloads.Get("adpcm")
	for _, kind := range []Kind{Scratch, Shared, Fusion, FusionDx} {
		cfg := DefaultConfig(kind)
		cfg.WatchdogCycles = 200_000
		if _, err := Run(b, cfg); err != nil {
			t.Errorf("%v: healthy run tripped something: %v", kind, err)
		}
	}
}
