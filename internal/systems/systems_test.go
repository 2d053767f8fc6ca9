package systems

import (
	"strings"
	"testing"

	"fusion/internal/workloads"
)

func runBench(t *testing.T, name string, kind Kind) *Result {
	t.Helper()
	b := workloads.Get(name)
	res, err := Run(b, DefaultConfig(kind))
	if err != nil {
		t.Fatalf("%s on %v: %v", name, kind, err)
	}
	return res
}

// verifyGolden checks that every line's final version matches sequential
// program semantics — no write lost anywhere in the hierarchy.
func verifyGolden(t *testing.T, name string, res *Result) {
	t.Helper()
	b := workloads.Get(name)
	want := ExpectedVersions(b)
	mismatches := 0
	for va, wv := range want {
		if gv := res.FinalVersions[va]; gv != wv {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("%s/%s line %#x: final v%d, golden v%d",
					name, res.System, uint64(va), gv, wv)
			}
		}
	}
	if mismatches > 5 {
		t.Errorf("... and %d more mismatches", mismatches-5)
	}
}

func TestAdpcmAllSystemsGolden(t *testing.T) {
	for _, kind := range []Kind{Scratch, Shared, Fusion, FusionDx} {
		res := runBench(t, "adpcm", kind)
		if res.Cycles == 0 {
			t.Fatalf("%v: zero cycles", kind)
		}
		verifyGolden(t, "adpcm", res)
	}
}

func TestFFTAllSystemsGolden(t *testing.T) {
	for _, kind := range []Kind{Scratch, Shared, Fusion, FusionDx} {
		res := runBench(t, "fft", kind)
		verifyGolden(t, "fft", res)
	}
}

func TestScratchHasDMATraffic(t *testing.T) {
	res := runBench(t, "fft", Scratch)
	if res.DMATransfers == 0 || res.DMACycles == 0 {
		t.Fatal("SCRATCH run shows no DMA activity")
	}
	// FFT's DMA-to-working-set ratio is the pathology of Section 5.2
	// (paper: 165x). It must at least be large.
	ratio := float64(res.DMABytes) / float64(res.WorkingSetBytes)
	if ratio < 10 {
		t.Fatalf("FFT DMA/WSet ratio = %.1f, want ≫ 1", ratio)
	}
}

func TestFusionEliminatesDMA(t *testing.T) {
	res := runBench(t, "fft", Fusion)
	if res.DMATransfers != 0 {
		t.Fatal("FUSION run used the DMA engine")
	}
	if res.Stats.Get("l0x.0.hits") == 0 {
		t.Fatal("no L0X hits")
	}
}

func TestDxForwardsBlocks(t *testing.T) {
	res := runBench(t, "fft", FusionDx)
	if res.ForwardedBlocks == 0 {
		t.Fatal("FUSION-Dx forwarded nothing on FFT")
	}
	verifyGolden(t, "fft", res)
}

// TestForwardedBlocksCountsEveryL0X ties Result.ForwardedBlocks to the
// counters: it must equal the sum of every L0X's fwd_out, whatever tile or
// slot the L0X sits in.
func TestForwardedBlocksCountsEveryL0X(t *testing.T) {
	for _, tiles := range []int{1, 2} {
		for _, name := range workloads.Names() {
			cfg := DefaultConfig(FusionDx)
			cfg.Tiles = tiles
			res, err := Run(workloads.Get(name), cfg)
			if err != nil {
				t.Fatalf("%s at %d tiles: %v", name, tiles, err)
			}
			var sum int64
			res.Stats.ForEach(func(n string, v int64) {
				if strings.HasSuffix(n, ".fwd_out") {
					sum += v
				}
			})
			if res.ForwardedBlocks != sum {
				t.Errorf("%s at %d tiles: ForwardedBlocks = %d, fwd_out counters sum to %d",
					name, tiles, res.ForwardedBlocks, sum)
			}
		}
	}
}

func TestMultiTileSplitIsCorrectAndWorse(t *testing.T) {
	// The paper collocates all of an application's accelerators on one
	// tile and forbids inter-tile communication for good reason: splitting
	// a pipeline across two tiles forces every producer-consumer handoff
	// through host MESI. The split must still be *correct* — and must
	// cost more energy on a sharing-heavy benchmark.
	b := workloads.Get("fft")
	one, err := Run(b, DefaultConfig(Fusion))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Fusion)
	cfg.Tiles = 2
	two, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyGolden(t, "fft", two)
	if two.OnChipPJ() <= one.OnChipPJ() {
		t.Errorf("splitting FFT across 2 tiles cost %.0f pJ <= collocated %.0f pJ; sharing should ping-pong through the host",
			two.OnChipPJ(), one.OnChipPJ())
	}
	if two.Stats.Get("t1.l1x.accesses") == 0 {
		t.Error("second tile saw no traffic — placement broken")
	}
}

func TestLeaseScaleAblation(t *testing.T) {
	// Shorter leases force more self-invalidations and re-leases.
	b := workloads.Get("adpcm")
	base, err := Run(b, DefaultConfig(Fusion))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Fusion)
	cfg.LeaseScale = 0.1
	short, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyGolden(t, "adpcm", short)
	baseGrants := base.Stats.Get("l1x.grants_read") + base.Stats.Get("l1x.grants_write")
	shortGrants := short.Stats.Get("l1x.grants_read") + short.Stats.Get("l1x.grants_write")
	if shortGrants <= baseGrants {
		t.Errorf("grants with 0.1x leases = %d, not above baseline %d", shortGrants, baseGrants)
	}
}

func TestDMADepthAblation(t *testing.T) {
	// A deeper DMA engine overlaps transfers and closes the gap on the
	// cache systems — the paper's "aggressive oracle" sensitivity.
	b := workloads.Get("fft")
	serial, err := Run(b, DefaultConfig(Scratch))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Scratch)
	cfg.DMAOutstanding = 8
	cfg.DMAGap = 1
	deep, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyGolden(t, "fft", deep)
	if deep.Cycles >= serial.Cycles {
		t.Errorf("8-deep DMA (%d cycles) not faster than serial (%d)", deep.Cycles, serial.Cycles)
	}
}
