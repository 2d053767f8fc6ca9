package workloads

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
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

// TestGenerationDeterministic pins every generated program: the paper
// benchmarks and the seeded random programs the benchmark harness runs
// (seeds 1000-1007 and 2000-2007) must digest to the recorded values, so a
// generator change that alters any phase, line set, forward set or table
// fails here, not only one that makes two builds disagree.
func TestGenerationDeterministic(t *testing.T) {
	want := map[string]string{
		"fft":         "fd92a37ff603d78a6f3246130a6ec1c9e023568d0aedad47a58a214a46144d3d",
		"disp":        "88c1121d08ebc4367d6a248d159e3f0d55e6a3a368a83d02011cc2961ea3c8a0",
		"track":       "9069d1edce44ce37fd834678b3c866b40e40ec62ef68bc382a38b532312c790c",
		"adpcm":       "89112d25039b302d59e0be33dd228494a8c3a8455d6878e3bb12c89e3ca482ce",
		"susan":       "070e2d64b56b24d5e557bc24a7d52408cd57fb69baa9e90c0405b25552f7c350",
		"filt":        "85a058a29018e426e4a3f51ccffc20e702b88a3144758f3e527303e34e33be58",
		"hist":        "60799ccd8bfafffbc57364ab10bbbab8b764362021fdb8ffafcf92d8d8645bed",
		"random-1000": "f4065dfec52ef938f3216ea874b03ba092c6a5fd430746e751786d6146b230c4",
		"random-1001": "61598e5c0eb154b645c81788492fc82960777284c99e8e0012cc623cdebf7f72",
		"random-1002": "d0d75b59d96bd208984a7461b333ca21e83fb9ecfcc561a2426f234ea3db9b4f",
		"random-1003": "8ff9306d0e75aec803817445a808de789696e23168b0ca68c6b2d8e910368ecf",
		"random-1004": "e6369077ea4715872b5d7a2c6cfd7a8f2c0d92597f559e1338eb873e23d1b983",
		"random-1005": "5947bc71f5f7ff397c4001b0979303a67a13a35edf647d3e082c531bb9b4d5a5",
		"random-1006": "61a3b3e2759764f5514879e59814ddc5dc51f14c8debe443cee03e6426ff0afd",
		"random-1007": "05a70d1c820268e1204a726a8eb157cb526d6be6d4958a79f4cf191d55b3a828",
		"random-2000": "7b864505f1586b1796b93931b82fbb47cf9d4a515d26bf4fbf73ad15c6a52ad8",
		"random-2001": "d2c684bb2729f1a17f64130d2329e33bfa152d1446c9b1c5a217dec67c9f7d7b",
		"random-2002": "932687668a63f6174055f0a32575c380614c2855ab1b41aee82ed0736563e897",
		"random-2003": "abff8998e9428b22e610b7d68090254c71103587759b5811921be296964965d9",
		"random-2004": "0cfcc45b41d35daf8a930213585199f114643071ed71e7bce801120a6fa5441d",
		"random-2005": "fbca1972f737db4d3d1b63e082b6f466e54e6b3019b55dde4a6ee7cae9d2f15e",
		"random-2006": "2c7ea073839d3e800e44d3218d786a5408695db753b15bfafb6dd21e225f3b8b",
		"random-2007": "a1b8a3de2ed959f0ac284a1c2b2742593f47ee1160b4e4d3449696f1054dd75c",
	}
	for _, name := range Names() {
		d := benchmarkDigest(Get(name))
		if again := benchmarkDigest(Get(name)); again != d {
			t.Errorf("%s: two builds digest %s and %s", name, d, again)
		}
		if d != want[name] {
			t.Errorf("%s: digest %s, want %s", name, d, want[name])
		}
	}
	for _, base := range []int64{1000, 2000} {
		for s := base; s < base+8; s++ {
			name := fmt.Sprintf("random-%d", s)
			if d := benchmarkDigest(Random(s, DefaultRandomParams())); d != want[name] {
				t.Errorf("%s: digest %s, want %s", name, d, want[name])
			}
		}
	}
}

// TestRepeatsShareTrace: a repeat of a function that draws nothing from
// the rng shares the first repeat's trace and Lines view (fft's step1 runs
// as phases 0, 6, ...), and programs without such repeats share nothing.
func TestRepeatsShareTrace(t *testing.T) {
	fft := Get("fft").Program
	first, again := &fft.Phases[0].Inv, &fft.Phases[6].Inv
	if first.Function != "step1" || again.Function != "step1" {
		t.Fatalf("phases 0 and 6 run %s and %s, want step1 twice", first.Function, again.Function)
	}
	if &first.Iterations[0] != &again.Iterations[0] {
		t.Error("fft phase 6 does not share phase 0's iterations")
	}
	l0, w0 := first.Lines()
	l6, w6 := again.Lines()
	if &l0[0] != &l6[0] || reflect.ValueOf(w0).Pointer() != reflect.ValueOf(w6).Pointer() {
		t.Error("fft phase 6 does not share phase 0's Lines view")
	}

	for name, b := range map[string]*Benchmark{
		"disp": Get("disp"), "hist": Get("hist"),
		"random-1000": Random(1000, DefaultRandomParams()),
		"random-2003": Random(2003, DefaultRandomParams()),
	} {
		owner := map[uintptr]int{} // storage address -> first phase holding it
		claim := func(i int, v any, n int) {
			if n == 0 {
				return // an empty value holds no storage of its own
			}
			p := reflect.ValueOf(v).Pointer()
			if j, ok := owner[p]; ok {
				t.Errorf("%s: phases %d and %d share storage", name, j, i)
			}
			owner[p] = i
		}
		for i := range b.Program.Phases {
			inv := &b.Program.Phases[i].Inv
			lines, written := inv.Lines()
			claim(i, inv.Iterations, len(inv.Iterations))
			claim(i, lines, len(lines))
			claim(i, written, len(written))
		}
	}
}

// benchmarkDigest hashes everything a run reads of a benchmark: each
// phase's kind, function, AXC, lease, Serial flag and iterations, its
// Lines view and written set, the forward sets, the input lines, the lease
// and MLP tables and the working set.
func benchmarkDigest(b *Benchmark) string {
	h := sha256.New()
	var buf []byte
	num := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	str := func(s string) { num(uint64(len(s))); buf = append(buf, s...) }
	addrs := func(as []mem.VAddr) {
		num(uint64(len(as)))
		for _, a := range as {
			num(uint64(a))
		}
	}
	flush := func() { h.Write(buf); buf = buf[:0] }

	p := b.Program
	str(p.Name)
	for i := range p.Phases {
		ph := &p.Phases[i]
		inv := &ph.Inv
		num(uint64(ph.Kind))
		str(inv.Function)
		num(uint64(inv.AXC))
		num(inv.LeaseTime)
		if inv.Serial {
			num(1)
		} else {
			num(0)
		}
		num(uint64(len(inv.Iterations)))
		for j := range inv.Iterations {
			it := &inv.Iterations[j]
			num(uint64(it.IntOps))
			num(uint64(it.FPOps))
			addrs(it.Loads)
			addrs(it.Stores)
			if len(buf) > 1<<16 {
				flush()
			}
		}
		lines, written := inv.Lines()
		addrs(lines)
		addrs(sortedKeys(written))
		flush()
	}
	for _, i := range sortedKeys(b.Forwards) {
		f := b.Forwards[i]
		num(uint64(i))
		num(uint64(f.Consumer))
		addrs(f.Lines)
	}
	addrs(b.InputLines)
	for _, fn := range sortedKeys(b.LeaseTimes) {
		str(fn)
		num(b.LeaseTimes[fn])
	}
	for _, fn := range sortedKeys(b.MLP) {
		str(fn)
		num(uint64(b.MLP[fn]))
	}
	lines, bytes := p.WorkingSet()
	num(uint64(lines))
	num(uint64(bytes))
	flush()
	return hex.EncodeToString(h.Sum(nil))
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
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
