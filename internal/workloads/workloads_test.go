package workloads

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"fusion/internal/mem"
	"fusion/internal/trace"
)

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, name := range Names() {
		b := Get(name)
		if len(b.Program.Phases) == 0 {
			t.Errorf("%s: empty program", name)
		}
		if len(b.InputLines) == 0 {
			t.Errorf("%s: no preloaded inputs", name)
		}
	}
}

func TestUnknownBenchmarkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown benchmark")
		}
	}()
	Get("nope")
}

func TestGenerationDeterministic(t *testing.T) {
	a, b := Get("fft"), Get("fft")
	if len(a.Program.Phases) != len(b.Program.Phases) {
		t.Fatal("phase counts differ")
	}
	for i := range a.Program.Phases {
		ia, ib := a.Program.Phases[i].Inv, b.Program.Phases[i].Inv
		if len(ia.Iterations) != len(ib.Iterations) {
			t.Fatalf("phase %d iteration counts differ", i)
		}
		for j := range ia.Iterations {
			xa, xb := ia.Iterations[j], ib.Iterations[j]
			for k := range xa.Loads {
				if xa.Loads[k] != xb.Loads[k] {
					t.Fatalf("phase %d iter %d load %d differs", i, j, k)
				}
			}
		}
	}
}

// Table 1 calibration: the generated op mix of each function must be close
// to the published breakdown.
func TestOpMixMatchesTable1(t *testing.T) {
	want := map[string]opMix{
		"step1":    {28, 7.8, 46.3, 17.9},
		"coder":    {32.8, 0, 56, 11.2},
		"medfilt":  {48.2, 0, 49.1, 2.7},
		"finalSAD": {22.8, 0, 71.3, 5.9},
		"rgb2hsl":  {22.1, 51.8, 20.7, 5.4},
	}
	got := map[string]opMix{}
	for _, name := range Names() {
		b := Get(name)
		for i := range b.Program.Phases {
			ph := &b.Program.Phases[i]
			if ph.Kind != trace.PhaseAccel {
				continue
			}
			ii, fp, ld, st := ph.Inv.Ops()
			tot := float64(ii + fp + ld + st)
			if tot == 0 {
				continue
			}
			got[ph.Inv.Function] = opMix{
				Int: 100 * float64(ii) / tot, FP: 100 * float64(fp) / tot,
				Ld: 100 * float64(ld) / tot, St: 100 * float64(st) / tot,
			}
		}
	}
	for fn, w := range want {
		g, ok := got[fn]
		if !ok {
			t.Errorf("%s: not generated", fn)
			continue
		}
		const tol = 12.0 // percentage points; iteration quantization allows drift
		if math.Abs(g.Int-w.Int) > tol || math.Abs(g.FP-w.FP) > tol ||
			math.Abs(g.Ld-w.Ld) > tol || math.Abs(g.St-w.St) > tol {
			t.Errorf("%s: mix = %+v, want ≈ %+v", fn, g, w)
		}
	}
}

// Working-set relations that the evaluation's crossovers depend on.
func TestWorkingSetRelations(t *testing.T) {
	ws := map[string]int{}
	for _, name := range Names() {
		_, bytes := Get(name).Program.WorkingSet()
		ws[name] = bytes
	}
	small := 64 << 10
	large := 256 << 10
	// ADPCM, SUSAN, FILT: small (paper: under ~30-60 KB) — fit the L1X.
	for _, n := range []string{"adpcm", "susan", "filt"} {
		if ws[n] >= small {
			t.Errorf("%s working set %d should fit the 64 KB L1X", n, ws[n])
		}
	}
	// FFT: small working set (the DMA ratio comes from re-streaming).
	if ws["fft"] >= small {
		t.Errorf("fft working set %d should fit the 64 KB L1X", ws["fft"])
	}
	// DISP: between the two L1X sizes (the Figure 7 crossover benchmark).
	if !(ws["disp"] > small && ws["disp"] < large) {
		t.Errorf("disp working set %d must lie in (64K, 256K)", ws["disp"])
	}
	// TRACK, HIST: beyond even the large L1X.
	for _, n := range []string{"track", "hist"} {
		if ws[n] <= large {
			t.Errorf("%s working set %d must exceed the 256 KB L1X", n, ws[n])
		}
	}
}

// Sharing degrees: pipelined functions share heavily (Table 1 averages
// ~50%; ADPCM ~99%).
func TestSharingDegrees(t *testing.T) {
	b := Get("adpcm")
	shr := b.Program.SharedLines()
	if shr["coder"] < 80 || shr["decoder"] < 30 {
		t.Errorf("adpcm sharing = %+v, want coder ≈ 99%%", shr)
	}
	b = Get("fft")
	shr = b.Program.SharedLines()
	for fn, v := range shr {
		if fn == "fft.host_consume" {
			continue
		}
		if v < 50 {
			t.Errorf("fft %s sharing %v, want high (every stage reuses the arrays)", fn, v)
		}
	}
}

func TestForwardsComputed(t *testing.T) {
	for _, name := range []string{"fft", "track", "adpcm"} {
		b := Get(name)
		if len(b.Forwards) == 0 {
			t.Errorf("%s: no producer-consumer forwards found", name)
			continue
		}
		for i, f := range b.Forwards {
			ph := b.Program.Phases[i]
			if f.Consumer == ph.Inv.AXC {
				t.Errorf("%s phase %d forwards to itself", name, i)
			}
			if len(f.Lines) == 0 {
				t.Errorf("%s phase %d: empty forward set", name, i)
			}
			if len(f.Lines) > 48 {
				t.Errorf("%s phase %d: forward set %d exceeds the selection cap",
					name, i, len(f.Lines))
			}
			dup := map[uint64]bool{}
			for _, l := range f.Lines {
				if dup[uint64(l)] {
					t.Errorf("%s phase %d: duplicate forward line", name, i)
				}
				dup[uint64(l)] = true
			}
		}
	}
}

func TestLeaseAndMLPTables(t *testing.T) {
	b := Get("adpcm")
	if b.LeaseTimes["coder"] != 1400 || b.MLP["coder"] != 2 {
		t.Fatalf("coder LT/MLP = %d/%d, want 1400/2",
			b.LeaseTimes["coder"], b.MLP["coder"])
	}
	b = Get("fft")
	if b.LeaseTimes["step3"] != 200 {
		t.Fatalf("step3 LT = %d, want 200", b.LeaseTimes["step3"])
	}
}

// TestShapeMatchesProgram: ShapeOf, read from the declarations, agrees
// with every generated program's accelerator count and lease times, and
// knows exactly the names Names lists.
func TestShapeMatchesProgram(t *testing.T) {
	for _, name := range Names() {
		sh, ok := ShapeOf(name)
		if !ok {
			t.Fatalf("no shape for %s", name)
		}
		b := Get(name)
		want := Shape{AXCs: b.Program.NumAXCs(), MinLease: math.MaxUint64}
		for _, lt := range b.LeaseTimes {
			want.MinLease, want.MaxLease = min(want.MinLease, lt), max(want.MaxLease, lt)
		}
		if sh != want {
			t.Errorf("%s: shape %+v, program %+v", name, sh, want)
		}
	}
	if _, ok := ShapeOf("nope"); ok {
		t.Error("unknown benchmark has a shape")
	}
}

func TestHostTailReadsOutputs(t *testing.T) {
	b := Get("track")
	last := b.Program.Phases[len(b.Program.Phases)-1]
	if last.Kind != trace.PhaseHost {
		t.Fatal("no host tail phase")
	}
	_, _, ld, st := last.Inv.Ops()
	if ld == 0 || st != 0 {
		t.Fatalf("host tail ld/st = %d/%d, want loads only", ld, st)
	}
}

func TestRegionsDoNotOverlap(t *testing.T) {
	for _, name := range Names() {
		b := Get(name)
		// Every line belongs to exactly one region: verify no two phases
		// write lines that alias across guard pages by checking line
		// addresses are all above the 1 MiB base.
		for i := range b.Program.Phases {
			lines, _ := b.Program.Phases[i].Inv.Lines()
			for _, l := range lines {
				if l < mem.VAddr(1<<20) {
					t.Fatalf("%s: line %#x below region base", name, uint64(l))
				}
			}
		}
	}
}

func TestProgramSizesReasonable(t *testing.T) {
	for _, name := range Names() {
		b := Get(name)
		totalIters := 0
		for i := range b.Program.Phases {
			totalIters += len(b.Program.Phases[i].Inv.Iterations)
		}
		if totalIters < 100 {
			t.Errorf("%s: only %d iterations — too small to exercise the hierarchy", name, totalIters)
		}
		if totalIters > 2_000_000 {
			t.Errorf("%s: %d iterations — sim would be too slow", name, totalIters)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig := Random(99, DefaultRandomParams())
	var buf bytes.Buffer
	if err := SaveJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program.Name != orig.Program.Name ||
		len(got.Program.Phases) != len(orig.Program.Phases) ||
		len(got.InputLines) != len(orig.InputLines) {
		t.Fatal("round trip lost structure")
	}
	for i := range orig.Program.Phases {
		a, b := &orig.Program.Phases[i].Inv, &got.Program.Phases[i].Inv
		if a.Function != b.Function || a.Serial != b.Serial ||
			len(a.Iterations) != len(b.Iterations) {
			t.Fatalf("phase %d differs", i)
		}
		for j := range a.Iterations {
			if len(a.Iterations[j].Loads) != len(b.Iterations[j].Loads) {
				t.Fatalf("phase %d iter %d loads differ", i, j)
			}
		}
	}
	if len(got.Forwards) != len(orig.Forwards) {
		t.Fatalf("forwards: %d vs %d", len(got.Forwards), len(orig.Forwards))
	}
}

func TestLoadJSONRejectsEmpty(t *testing.T) {
	if _, err := LoadJSON(strings.NewReader("{}")); err == nil {
		t.Fatal("empty benchmark accepted")
	}
	if _, err := LoadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestLoadJSONRecomputesForwards(t *testing.T) {
	orig := Get("fft")
	clone := &Benchmark{
		Program:    orig.Program,
		InputLines: orig.InputLines,
		LeaseTimes: orig.LeaseTimes,
		MLP:        orig.MLP,
		// Forwards deliberately omitted.
	}
	var buf bytes.Buffer
	if err := SaveJSON(&buf, clone); err != nil {
		t.Fatal(err)
	}
	// Strip the (empty) forwards key by loading into a map and deleting.
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "Forwards")
	raw, _ := json.Marshal(m)
	got, err := LoadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Forwards) == 0 {
		t.Fatal("forwards not recomputed on load")
	}
}

func TestValidateAcceptsAllBenchmarks(t *testing.T) {
	for _, name := range Names() {
		if errs := Validate(Get(name)); len(errs) > 0 {
			t.Errorf("%s: %v", name, errs)
		}
	}
	for _, seed := range []int64{1, 2, 3} {
		if errs := Validate(Random(seed, DefaultRandomParams())); len(errs) > 0 {
			t.Errorf("random-%d: %v", seed, errs)
		}
	}
}

func TestValidateCatchesMalformations(t *testing.T) {
	cases := []struct {
		name string
		b    *Benchmark
		want string
	}{
		{"nil program", &Benchmark{}, "no program"},
		{"no phases", &Benchmark{Program: &trace.Program{Name: "x"}}, "no phases"},
		{"accel with negative axc", &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
			{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "f", AXC: -1, LeaseTime: 10,
				Iterations: []trace.Iteration{{IntOps: 1}}}},
		}}}, "AXC -1"},
		{"host with axc", &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
			{Kind: trace.PhaseHost, Inv: trace.Invocation{Function: "f", AXC: 2,
				Iterations: []trace.Iteration{{IntOps: 1}}}},
		}}}, "host phase with AXC"},
		{"no lease", &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
			{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "f", AXC: 0,
				Iterations: []trace.Iteration{{IntOps: 1}}}},
		}}}, "no lease time"},
		{"empty iteration", &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
			{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "f", AXC: 0, LeaseTime: 10,
				Iterations: []trace.Iteration{{}}}},
		}}}, "empty"},
		{"sparse axcs", &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
			{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "f", AXC: 3, LeaseTime: 10,
				Iterations: []trace.Iteration{{IntOps: 1}}}},
		}}}, "not dense"},
		// The density check must not walk every id up to the largest: this
		// one would take 2^62 steps.
		{"far-apart axcs", &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
			{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "f", AXC: 0, LeaseTime: 10,
				Iterations: []trace.Iteration{{IntOps: 1}}}},
			{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "g", AXC: 1 << 62, LeaseTime: 10,
				Iterations: []trace.Iteration{{IntOps: 1}}}},
		}}}, "1 unused while 4611686018427387904 exists"},
	}
	for _, c := range cases {
		errs := Validate(c.b)
		found := false
		for _, e := range errs {
			if strings.Contains(e.Error(), c.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: expected error containing %q, got %v", c.name, c.want, errs)
		}
	}
}

func TestValidateForwardSets(t *testing.T) {
	b := &Benchmark{Program: &trace.Program{Phases: []trace.Phase{
		{Kind: trace.PhaseAccel, Inv: trace.Invocation{Function: "f", AXC: 0, LeaseTime: 10,
			Iterations: []trace.Iteration{{IntOps: 1}}}},
	}}, Forwards: map[int]ForwardSet{
		5: {Consumer: 9, Lines: nil},
	}}
	errs := Validate(b)
	if len(errs) == 0 {
		t.Fatal("bogus forward set accepted")
	}
}
