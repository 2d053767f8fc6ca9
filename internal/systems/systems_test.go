package systems

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"fusion/internal/faults"
	"fusion/internal/interconnect"
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

// typedCount is one typed count of Result and the named counters it sums;
// untiled, if set, names them instead on a system without ACC tiles.
type typedCount struct {
	field          string
	get            func(*Result) int64
	names, untiled *regexp.Regexp
}

// typedCounts lists every typed count with the counters it must equal. A
// tile after the first prefixes its counters with "t<t>.".
func typedCounts() []typedCount {
	var out []typedCount
	add := func(field, names string, get func(*Result) int64) {
		out = append(out, typedCount{field: field, get: get, names: regexp.MustCompile(names)})
	}
	const tile = `^(t\d+\.)?`
	add("DMATransfers", `^dma\.(reads|writes)$`, func(r *Result) int64 { return r.DMATransfers })
	add("ForwardedBlocks", tile+`l0x\.\d+\.fwd_out$`, func(r *Result) int64 { return r.ForwardedBlocks })
	add("SharedSwitchMsgs", `^sharedswitch\.msgs$`, func(r *Result) int64 { return r.SharedSwitchMsgs })
	add("TLBLookups", tile+`axtlb\.lookups$`, func(r *Result) int64 { return r.TLBLookups })
	add("RMAPLookups", tile+`axrmap\.lookups$`, func(r *Result) int64 { return r.RMAPLookups })
	add("LeaseGrants", tile+`l1x\.grants_(read|write)$`, func(r *Result) int64 { return r.LeaseGrants })
	add("DirFwdsToTile", tile+`l1x\.host_fwds$`, func(r *Result) int64 { return r.DirFwdsToTile })
	out[len(out)-1].untiled = regexp.MustCompile(`^dir\.fwd_to_tile$`)
	add("Faults", `\.faults$|^dram\.fault_spikes$`, func(r *Result) int64 { return r.Faults })
	for _, l := range []struct {
		field, names string
		get          func(*Result) interconnect.Traffic
	}{
		{"TileUp", tile + `link\.l0x\d+\.up`, func(r *Result) interconnect.Traffic { return r.TileUp }},
		{"TileDown", tile + `link\.l0x\d+\.down`, func(r *Result) interconnect.Traffic { return r.TileDown }},
		{"HostTiles", `^hostlink\.tile\d*`, func(r *Result) interconnect.Traffic { return r.HostTiles }},
		{"HostDMA", `^hostlink\.dma`, func(r *Result) interconnect.Traffic { return r.HostDMA }},
		{"HostP2P", `^hostlink\.p2p`, func(r *Result) interconnect.Traffic { return r.HostP2P }},
	} {
		add(l.field+".Msgs", l.names+`\.msgs$`, func(r *Result) int64 { return l.get(r).Msgs })
		add(l.field+".Flits", l.names+`\.flits$`, func(r *Result) int64 { return l.get(r).Flits })
		add(l.field+".Ctrl", l.names+`\.ctrl$`, func(r *Result) int64 { return l.get(r).Ctrl })
		add(l.field+".Data", l.names+`\.data$`, func(r *Result) int64 { return l.get(r).Data })
	}
	return out
}

// TestForwardedBlocksCountsEveryL0X ties Result.ForwardedBlocks, and every
// other typed count, to the counters: each must equal the sum of the named
// counters it stands for, whatever tile or slot they sit in. It covers every
// system on fft and hist (fault-free and under a fault plan) and FUSION-Dx
// on every benchmark at 1 and 2 tiles. DirFwdsToTile sums every tile L1X's
// host forwards, which at 1 tile are the directory's forwards to its
// TileAgent, so Table 6 reads the same count as before tiles were summed.
func TestForwardedBlocksCountsEveryL0X(t *testing.T) {
	type cell struct {
		bench  string
		kind   Kind
		tiles  int
		faults bool
	}
	var cells []cell
	for _, name := range []string{"fft", "hist"} {
		for _, k := range Kinds() {
			cells = append(cells, cell{name, k, 1, false}, cell{name, k, 1, true})
		}
	}
	for _, tiles := range []int{1, 2} {
		for _, name := range workloads.Names() {
			cells = append(cells, cell{name, FusionDx, tiles, false})
		}
	}
	counts := typedCounts()
	tile1 := false // some tile-1 counter fed a typed count
	plan := faults.RandomPlan(7)
	for _, c := range cells {
		cfg := DefaultConfig(c.kind)
		cfg.Tiles = c.tiles
		if c.faults {
			cfg.Faults = &plan
		}
		b := workloads.Get(c.bench)
		res, err := Run(b, cfg)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		untiled := c.kind == Scratch || c.kind == Shared
		for _, tc := range counts {
			names := tc.names
			if untiled && tc.untiled != nil {
				names = tc.untiled
			}
			var sum int64
			for _, n := range res.Stats.Names() {
				if names.MatchString(n) {
					sum += res.Stats.Get(n)
					tile1 = tile1 || strings.HasPrefix(n, "t1.") && res.Stats.Get(n) > 0
				}
			}
			if got := tc.get(res); got != sum {
				t.Errorf("%+v: %s = %d, its counters sum to %d", c, tc.field, got, sum)
			}
		}
		if dir := res.Stats.Get("dir.fwd_to_tile"); c.tiles == 1 && res.DirFwdsToTile != dir {
			t.Errorf("%+v: DirFwdsToTile = %d at 1 tile, dir.fwd_to_tile = %d", c, res.DirFwdsToTile, dir)
		}
		if res.DMABytes != 64*res.DMATransfers {
			t.Errorf("%+v: DMABytes = %d, want 64 x %d transfers", c, res.DMABytes, res.DMATransfers)
		}
		if len(res.AXCMLPMilli) != b.Program.NumAXCs() {
			t.Errorf("%+v: %d MLP entries for %d AXCs", c, len(res.AXCMLPMilli), b.Program.NumAXCs())
		}
		for axc, got := range res.AXCMLPMilli {
			if want := res.Stats.Get(fmt.Sprintf("axc%d.mlp_milli", axc)); got != want {
				t.Errorf("%+v: AXCMLPMilli[%d] = %d, axc%d.mlp_milli = %d", c, axc, got, axc, want)
			}
		}
	}
	if !tile1 {
		t.Error("no tile-1 counter was nonzero: the 2-tile runs did not check tile 1")
	}
}

// TestManyTilesRouteEveryPair splits FUSION fft across 4 and 6 tiles and
// requires every message to travel a configured route: tile-to-tile data
// responses cross hostlink.p2p, so the fabric's default route (counted
// under fabric.*) carries nothing, and the final image stays golden.
func TestManyTilesRouteEveryPair(t *testing.T) {
	for _, tiles := range []int{4, 6} {
		cfg := DefaultConfig(Fusion)
		cfg.Tiles = tiles
		res, err := Run(workloads.Get("fft"), cfg)
		if err != nil {
			t.Fatalf("%d tiles: %v", tiles, err)
		}
		for _, n := range res.Stats.Names() {
			if v := res.Stats.Get(n); strings.HasPrefix(n, "fabric.") && v != 0 {
				t.Errorf("%d tiles: %s = %d, want 0: a pair of agents has no route", tiles, n, v)
			}
		}
		if res.Stats.Get(fmt.Sprintf("t%d.l1x.accesses", tiles-1)) == 0 {
			t.Errorf("%d tiles: the last tile saw no traffic", tiles)
		}
		verifyGolden(t, "fft", res)
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

// TestHydraLargestDeadlineIsUnarmed: a task deadline past the last
// representable cycle saturates there, so it never passes and fft/hydra
// runs exactly as with the deadline unarmed. The start-plus-budget sum used
// to wrap to a deadline behind the clock.
func TestHydraLargestDeadlineIsUnarmed(t *testing.T) {
	b := workloads.Get("fft")
	unarmed, err := Run(b, DefaultConfig(Hydra))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Hydra)
	cfg.DeadlineCycles, cfg.MaxCycles = math.MaxUint64, math.MaxUint64
	res, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	verifyGolden(t, "fft", res)
	if res.Cycles != unarmed.Cycles || res.Stats.Get("l1x.bypass_deadline") != 0 {
		t.Fatalf("deadline 2^64-1: %d cycles, %d deadline bypasses; unarmed: %d cycles",
			res.Cycles, res.Stats.Get("l1x.bypass_deadline"), unarmed.Cycles)
	}
}
