package fusion_test

import (
	"io"
	"strings"
	"testing"

	"fusion"
)

func TestPublicQuickstart(t *testing.T) {
	b := fusion.LoadBenchmark("adpcm")
	res, err := fusion.Run(b, fusion.DefaultConfig(fusion.FusionSystem))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Energy.Total() == 0 {
		t.Fatal("empty result")
	}
	want := fusion.ExpectedVersions(b)
	for va, wv := range want {
		if res.FinalVersions[va] != wv {
			t.Fatalf("line %#x: v%d, golden v%d", uint64(va), res.FinalVersions[va], wv)
		}
	}
}

func TestBenchmarkNames(t *testing.T) {
	names := fusion.Benchmarks()
	if len(names) != 7 {
		t.Fatalf("benchmarks = %v, want 7", names)
	}
	for _, n := range names {
		if fusion.LoadBenchmark(n) == nil {
			t.Fatalf("LoadBenchmark(%q) nil", n)
		}
	}
}

func TestCustomProgram(t *testing.T) {
	// A minimal two-stage pipeline built through the public API: stage 0
	// produces a buffer, stage 1 consumes it.
	const base = fusion.VAddr(1 << 20)
	var produce, consume fusion.Invocation
	produce = fusion.Invocation{Function: "produce", AXC: 0, LeaseTime: 500}
	consume = fusion.Invocation{Function: "consume", AXC: 1, LeaseTime: 500}
	for i := 0; i < 64; i++ {
		a := base + fusion.VAddr(i*64)
		produce.Iterations = append(produce.Iterations, fusion.Iteration{
			Stores: []fusion.VAddr{a}, IntOps: 4,
		})
		consume.Iterations = append(consume.Iterations, fusion.Iteration{
			Loads: []fusion.VAddr{a}, IntOps: 4,
		})
	}
	b := &fusion.Benchmark{
		Program: &fusion.Program{
			Name: "custom",
			Phases: []fusion.Phase{
				{Kind: fusion.PhaseAccel, Inv: produce},
				{Kind: fusion.PhaseAccel, Inv: consume},
			},
		},
		LeaseTimes: map[string]uint64{"produce": 500, "consume": 500},
		MLP:        map[string]int{"produce": 4, "consume": 4},
	}
	res, err := fusion.Run(b, fusion.DefaultConfig(fusion.FusionSystem))
	if err != nil {
		t.Fatal(err)
	}
	want := fusion.ExpectedVersions(b)
	for va, wv := range want {
		if res.FinalVersions[va] != wv {
			t.Fatalf("custom program: line %#x v%d, golden v%d",
				uint64(va), res.FinalVersions[va], wv)
		}
	}
	// The consumer's reads never left the tile (no DMA, tile-local sharing).
	if res.DMATransfers != 0 {
		t.Fatal("FUSION run used DMA")
	}
}

// TestRunExperimentUnknown: both entry points reject an unknown name and
// offer every artifact ExperimentNames lists.
func TestRunExperimentUnknown(t *testing.T) {
	names := strings.Join(fusion.ExperimentNames(), " ")
	for _, run := range []func(io.Writer, string) error{
		fusion.RunExperiment, fusion.NewExperiments().Print,
	} {
		err := run(io.Discard, "nope")
		if err == nil {
			t.Fatal("unknown experiment did not error")
		}
		if !strings.Contains(err.Error(), names) {
			t.Errorf("error %q does not offer %s", err, names)
		}
	}
}
