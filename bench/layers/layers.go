// Package layers holds one microbenchmark per hot operation of the
// simulator's layers: the event kernel, the accelerator datapath, the cache
// arrays, the L0X/L1X lease path, the MESI directory, fabric links, DRAM,
// address translation, the scratchpad path, the per-run machine set-up and
// fusiond's result cache. Each drives the layer's public API in isolation,
// so a change to one layer shows in its own number.
//
// fusionperf runs them through testing.Benchmark in its traced runs; they
// also run as ordinary Go benchmarks:
//
//	go test -run '^$' -bench . ./layers
package layers

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"fusion/internal/acc"
	"fusion/internal/accel"
	"fusion/internal/cache"
	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/scratchpad"
	"fusion/internal/service"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/systems"
	"fusion/internal/trace"
	"fusion/internal/vm"
	"fusion/internal/workloads"
)

// Micro is one microbenchmark and the metric it reports.
type Micro struct {
	// Name is the metric name, "<layer>.<operation>_<unit>".
	Name string
	// Unit is the time unit of one operation: "ns", "us" or "ms".
	Unit string
	// Bench runs b.N operations.
	Bench func(b *testing.B)
}

// perFiredOp is the custom benchmark metric the accelerator micro reports:
// its b.N loop runs whole invocations, but the datapath's cost is per fired
// operation.
const perFiredOp = "ns/fired-op"

// All lists the microbenchmarks in reporting order.
func All() []Micro {
	return []Micro{
		{"sim.schedule_step_ns", "ns", benchScheduleStep},
		{"sim.schedule_far_ns", "ns", benchScheduleFar},
		{"accel.tick_ns_per_op", "ns", benchAccelTick},
		{"cache.lookup_hit_ns", "ns", benchLookup(true)},
		{"cache.lookup_miss_ns", "ns", benchLookup(false)},
		{"acc.l0x_hit_ns", "ns", benchL0XHit},
		{"acc.l1x_grant_ns", "ns", benchL1XGrant},
		{"mesi.gets_roundtrip_ns", "ns", benchGetS},
		{"interconnect.send_deliver_ns", "ns", benchLink},
		{"dram.row_hit_ns", "ns", benchDRAM(false)},
		{"dram.row_miss_ns", "ns", benchDRAM(true)},
		{"vm.translate_ns", "ns", benchPageTable},
		{"vm.tlb_translate_ns", "ns", benchTLB},
		{"vm.rmap_lookup_ns", "ns", benchRMAP},
		{"scratchpad.windows_ms", "ms", benchWindows},
		{"scratchpad.access_ns", "ns", benchScratchAccess},
		{"systems.empty_run_us", "us", benchEmptyRun},
		{"service.cache_get_us", "us", benchCacheGet},
		{"service.cache_put_us", "us", benchCachePut},
	}
}

// Result is one microbenchmark's outcome: time per operation in the
// micro's unit, and heap allocations per benchmark iteration.
type Result struct {
	PerOp  float64
	Allocs float64
}

// Run executes every microbenchmark through testing.Benchmark, each for
// about benchtime (a testing -benchtime value such as "100ms" or "1x").
func Run(benchtime string) (map[string]Result, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return nil, fmt.Errorf("layers: benchtime %q: %w", benchtime, err)
	}
	out := make(map[string]Result)
	for _, m := range All() {
		r := testing.Benchmark(m.Bench)
		if r.N == 0 {
			return nil, fmt.Errorf("layers: %s failed", m.Name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if v, ok := r.Extra[perFiredOp]; ok {
			ns = v
		}
		scale := map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}[m.Unit]
		out[m.Name] = Result{PerOp: ns / scale, Allocs: float64(r.MemAllocs) / float64(r.N)}
	}
	return out, nil
}

// waiter counts completions. done and fired are built once, so issuing an
// access and running the engine to its completion allocates nothing in the
// benchmark itself.
type waiter struct {
	n, want int
	done    func(now uint64)
	fired   func() bool
}

func newWaiter() *waiter {
	w := &waiter{}
	w.done = func(uint64) { w.n++ }
	w.fired = func() bool { return w.n >= w.want }
	return w
}

// HandleEvent makes the waiter a closure-free event target.
func (w *waiter) HandleEvent(uint64, uint8, uint64) { w.n++ }

// await runs the engine until one more completion than awaited before.
func (w *waiter) await(b *testing.B, eng *sim.Engine, maxCycles uint64) {
	w.want++
	if _, ok := eng.Run(maxCycles, w.fired); !ok {
		b.Fatalf("completion %d did not arrive within %d cycles", w.want, maxCycles)
	}
}

// sink keeps lookup results alive so the compiler cannot drop the calls.
var sink any

// farDelay lies beyond the time wheel's 1024-cycle horizon, so the event
// waits in the overflow heap and is promoted as the clock approaches.
const farDelay = 4096

func benchScheduleStep(b *testing.B) {
	eng := sim.NewEngine()
	w := newWaiter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleCall(1, w, 0, uint64(i))
		eng.Step()
	}
	b.StopTimer()
	if w.n < b.N-1 {
		b.Fatalf("fired %d of %d events", w.n, b.N)
	}
}

func benchScheduleFar(b *testing.B) {
	eng := sim.NewEngine()
	w := newWaiter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScheduleCall(farDelay, w, 0, uint64(i))
		w.await(b, eng, 2*farDelay)
	}
}

// readyPort is an accel.MemPort that accepts every access and completes it
// the next cycle, so the accelerator micro measures the datapath alone.
type readyPort struct{ eng *sim.Engine }

func (p readyPort) Access(_ mem.AccessKind, _ mem.VAddr, done func(uint64)) bool {
	p.eng.Schedule(1, done)
	return true
}

// streamInvocation is a streaming kernel: per iteration two loads from
// consecutive lines, integer and floating-point compute, and one store.
func streamInvocation(iters int) *trace.Invocation {
	inv := &trace.Invocation{Function: "stream", Iterations: make([]trace.Iteration, iters)}
	for i := range inv.Iterations {
		base := mem.VAddr(1<<20 + 128*i)
		inv.Iterations[i] = trace.Iteration{
			Loads:  []mem.VAddr{base, base + 64},
			Stores: []mem.VAddr{mem.VAddr(1<<24 + 64*i)},
			IntOps: 6,
			FPOps:  2,
		}
	}
	return inv
}

func benchAccelTick(b *testing.B) {
	eng := sim.NewEngine()
	ax := accel.New(eng, "axc0", accel.DefaultConfig(), energy.Default(), energy.NewMeter(), stats.NewSet())
	inv := streamInvocation(256)
	intOps, fpOps, loads, stores := inv.Ops()
	ops := intOps + fpOps + loads + stores
	port := readyPort{eng}
	w := newWaiter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ax.Start(inv, port, w.done)
		w.await(b, eng, 1<<20)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), perFiredOp)
}

func benchLookup(hit bool) func(b *testing.B) {
	return func(b *testing.B) {
		a := cache.NewArray(cache.Params{SizeBytes: 64 << 10, Ways: 8, LineBytes: mem.LineBytes})
		const lines = 512
		for i := 0; i < lines; i++ {
			addr := uint64(i * mem.LineBytes)
			a.Fill(a.Victim(addr), addr, 1)
		}
		var off uint64
		if !hit {
			off = 1 << 30 // same sets, absent tags: every way is compared
		}
		b.ReportAllocs()
		b.ResetTimer()
		var l *cache.Line
		for i := 0; i < b.N; i++ {
			l = a.LookupPID(off+uint64(i%lines)*mem.LineBytes, 1)
		}
		b.StopTimer()
		if (l != nil) != hit {
			b.Fatalf("lookup hit=%v, want %v", l != nil, hit)
		}
		sink = l
	}
}

// tileRig is a FUSION tile on a host fabric with a directory and DRAM, as
// systems assembles it for one accelerator.
type tileRig struct {
	eng  *sim.Engine
	st   *stats.Set
	tile *acc.Tile
	w    *waiter
}

func newTileRig() *tileRig {
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	dir := mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	const tileAgent mesi.AgentID = 2
	dir.TileAgent = tileAgent
	cfg := acc.SmallTileConfig(1, model)
	cfg.Agent = tileAgent
	tile := acc.NewTile(eng, fab, vm.NewPageTable(), cfg, model, mt, st)
	return &tileRig{eng: eng, st: st, tile: tile, w: newWaiter()}
}

// load issues one accelerator load through the L0X and runs the engine
// until it retires.
func (r *tileRig) load(b *testing.B, va mem.VAddr) {
	if !r.tile.L0Xs[0].Access(mem.Load, va, r.w.done) {
		b.Fatal("L0X MSHR full on an idle cache")
	}
	r.w.await(b, r.eng, 1<<20)
}

func benchL0XHit(b *testing.B) {
	r := newTileRig()
	r.tile.L0Xs[0].SetLeaseTime(1 << 40) // the lease never lapses
	r.load(b, 1<<20)                     // cold miss installs the line
	hits0 := r.st.Get("l0x.0.hits")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.load(b, mem.VAddr(1<<20+8*(i%8)))
	}
	b.StopTimer()
	if got := r.st.Get("l0x.0.hits") - hits0; got != int64(b.N) {
		b.Fatalf("%d L0X hits, want %d", got, b.N)
	}
}

// grantLease outlives the L0X-L1X round trip, so a grant arrives live, and
// the micro lets it lapse before the next load re-requests the line.
const grantLease = 16

func benchL1XGrant(b *testing.B) {
	r := newTileRig()
	r.tile.L0Xs[0].SetLeaseTime(grantLease)
	expire := func() { r.eng.Run(2*grantLease, nil) }
	r.load(b, 1<<20) // cold miss brings the line into the L1X
	expire()
	misses0 := r.st.Get("l0x.0.misses")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.load(b, 1<<20)
		expire()
	}
	b.StopTimer()
	if got := r.st.Get("l0x.0.misses") - misses0; got != int64(b.N) {
		b.Fatalf("%d L0X misses, want %d (each load must be a fresh L1X grant)", got, b.N)
	}
}

// benchGetS times one producer-to-consumer handoff between two MESI L1s:
// a store by the first (GetM, invalidating the reader's copy) and a load by
// the second, a 3-hop GetS the directory forwards to the modified owner.
func benchGetS(b *testing.B) {
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := mesi.NewFabric(eng, mt, st)
	d := dram.New(eng, dram.DefaultConfig(), model, mt, st)
	mesi.NewDirectory(fab, mesi.DefaultDirConfig(), d, model, mt, st)
	var clients [2]*mesi.Client
	for i := range clients {
		cfg := mesi.DefaultHostL1Config(model)
		cfg.Name = fmt.Sprintf("l1.%d", i)
		clients[i] = mesi.NewClient(fab, mesi.AgentID(1+i), cfg, model, mt, st)
	}
	w := newWaiter()
	handoff := func() {
		for i, kind := range [2]mem.AccessKind{mem.Store, mem.Load} {
			if !clients[i].Access(kind, 0x4000, w.done) {
				b.Fatal("MSHR full on an idle cache")
			}
			w.await(b, eng, 1<<20)
		}
	}
	handoff()
	fwd0 := st.Get("l1.0.fwd_served")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handoff()
	}
	b.StopTimer()
	if got := st.Get("l1.0.fwd_served") - fwd0; got != int64(b.N) {
		b.Fatalf("%d forwarded GetS, want %d", got, b.N)
	}
}

// ctrlMsg is a control-sized link message.
type ctrlMsg int

func (m ctrlMsg) Bytes() int { return int(m) }

func benchLink(b *testing.B) {
	eng := sim.NewEngine()
	delivered := 0
	link := interconnect.NewLink(eng, interconnect.Config{
		Name:    "bench",
		Latency: 1,
		Stats:   stats.NewSet(),
		Deliver: func(interconnect.Message) { delivered++ },
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Send(ctrlMsg(interconnect.ControlBytes))
		eng.Step()
	}
	b.StopTimer()
	if delivered < b.N-1 {
		b.Fatalf("delivered %d of %d messages", delivered, b.N)
	}
}

// benchDRAM times one read on an open row (rowMiss false) or alternating
// between two rows of one channel, so every read reopens a row.
func benchDRAM(rowMiss bool) func(b *testing.B) {
	return func(b *testing.B) {
		eng := sim.NewEngine()
		st := stats.NewSet()
		d := dram.New(eng, dram.DefaultConfig(), energy.Default(), energy.NewMeter(), st)
		w := newWaiter()
		read := func(i int) {
			addr := mem.PAddr(0)
			if rowMiss && i%2 == 1 {
				addr = 1 << 16 // row 32 of channel 0
			}
			if !d.Submit(dram.Request{Addr: addr, Done: w.done}) {
				b.Fatal("DRAM queue full while idle")
			}
			w.await(b, eng, 1<<20)
		}
		read(1)
		hits0, misses0 := st.Get("dram.row_hit"), st.Get("dram.row_miss")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			read(i)
		}
		b.StopTimer()
		got, name := st.Get("dram.row_hit")-hits0, "row hits"
		if rowMiss {
			got, name = st.Get("dram.row_miss")-misses0, "row misses"
		}
		if got != int64(b.N) {
			b.Fatalf("%d %s, want %d", got, name, b.N)
		}
	}
}

// pages is the translation working set: distinct pages of one process.
func pages(n int) []mem.VAddr {
	out := make([]mem.VAddr, n)
	for i := range out {
		out[i] = mem.VAddr(1<<20 + i*mem.PageBytes + 64)
	}
	return out
}

func benchPageTable(b *testing.B) {
	pt := vm.NewPageTable()
	vas := pages(256)
	for _, va := range vas {
		pt.Translate(1, va)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var pa mem.PAddr
	for i := 0; i < b.N; i++ {
		pa = pt.Translate(1, vas[i%len(vas)])
	}
	sink = pa
}

func benchTLB(b *testing.B) {
	pt := vm.NewPageTable()
	tlb := vm.NewTLB("axtlb", 32, 40, pt, energy.Default(), energy.NewMeter(), stats.NewSet())
	vas := pages(24) // fits the 32-entry AX-TLB: every lookup after warm-up hits
	for _, va := range vas {
		tlb.Translate(1, va)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var walk uint64
	for i := 0; i < b.N; i++ {
		_, w := tlb.Translate(1, vas[i%len(vas)])
		walk += w
	}
	b.StopTimer()
	if walk != 0 {
		b.Fatal("AX-TLB missed on a resident working set")
	}
}

func benchRMAP(b *testing.B) {
	r := vm.NewRMAP("axrmap", energy.Default(), energy.NewMeter(), stats.NewSet())
	const lines = 1024 // the small L1X's 64 KB
	for i := 0; i < lines; i++ {
		r.Insert(mem.PAddr(i*mem.LineBytes), vm.Pointer{VAddr: mem.VAddr(1<<20 + i*mem.LineBytes), PID: 1})
	}
	b.ReportAllocs()
	b.ResetTimer()
	var ok bool
	for i := 0; i < b.N; i++ {
		_, ok = r.Lookup(mem.PAddr((i % lines) * mem.LineBytes))
	}
	sink = ok
}

// paperInvocation is an accelerator phase of a paper benchmark with its
// benchmark's preloaded input lines.
type paperInvocation struct {
	inv  *trace.Invocation
	live map[mem.VAddr]bool
}

// paperInvocations are the accelerator phases of the seven paper
// benchmarks.
var paperInvocations = sync.OnceValue(func() (out []paperInvocation) {
	for _, name := range workloads.Names() {
		bm := workloads.Get(name)
		live := make(map[mem.VAddr]bool)
		for _, va := range bm.InputLines {
			live[va.LineAddr()] = true
		}
		for i := range bm.Program.Phases {
			if ph := &bm.Program.Phases[i]; ph.Kind == trace.PhaseAccel {
				out = append(out, paperInvocation{&ph.Inv, live})
			}
		}
	}
	return out
})

// benchWindows times the SCRATCH oracle's window planning over every
// paper invocation at the small (4 KB) scratchpad size.
func benchWindows(b *testing.B) {
	invs := paperInvocations()
	const capacityLines = 4 << 10 / mem.LineBytes
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, p := range invs {
			n += len(scratchpad.Windows(p.inv, capacityLines, p.live))
		}
	}
	sink = n
}

func benchScratchAccess(b *testing.B) {
	eng := sim.NewEngine()
	pad := scratchpad.New(eng, "spad0", scratchpad.Config{SizeBytes: 4 << 10, AccessLat: 1,
		AccessPJ: energy.Default().ScratchSmall}, energy.NewMeter(), stats.NewSet())
	const lines = 4 << 10 / mem.LineBytes
	for i := 0; i < lines; i++ {
		pad.Fill(mem.VAddr(1<<20+i*mem.LineBytes), 1)
	}
	w := newWaiter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pad.Access(mem.Load, mem.VAddr(1<<20+(i%lines)*mem.LineBytes), w.done)
		eng.Step()
	}
	b.StopTimer()
	if w.n < b.N-1 {
		b.Fatalf("completed %d of %d accesses", w.n, b.N)
	}
}

// emptyProgram is a one-phase, one-load program: running it costs the
// machine's assembly and drain and almost no simulated work.
func emptyProgram() *workloads.Benchmark {
	bm := &workloads.Benchmark{
		Program: &trace.Program{Name: "empty", Phases: []trace.Phase{{
			Kind: trace.PhaseAccel,
			Inv: trace.Invocation{Function: "f", LeaseTime: 100,
				Iterations: []trace.Iteration{{Loads: []mem.VAddr{1 << 20}, IntOps: 1}}},
		}}},
		InputLines: []mem.VAddr{1 << 20},
		LeaseTimes: map[string]uint64{"f": 100},
		MLP:        map[string]int{"f": 1},
		Forwards:   map[int]workloads.ForwardSet{},
	}
	bm.Program.Seal()
	return bm
}

func benchEmptyRun(b *testing.B) {
	bm := emptyProgram()
	cfg := systems.DefaultConfig(systems.Fusion)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := systems.RunCtx(context.Background(), bm, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sink = res
	}
}

// cacheCell is a successful fusiond cell shaped like a real one: every
// measurement and digest field set. knob makes the spec (and so the cache
// address) distinct.
func cacheCell(knob uint64) *service.CellResult {
	spec := systems.Spec{Bench: "fft", System: "fusion", MaxCycles: 1_000_000_000 + knob}.Normalized()
	return &service.CellResult{
		Spec: spec, Hash: spec.Hash(),
		Cycles: 123_456, EnergyPJ: 9_876_543.21, Forwarded: 12,
		LinesChecked: 640, VersionsDigest: strings.Repeat("ab", 32), StatsDigest: strings.Repeat("cd", 32),
	}
}

// openCache opens a fresh fusiond cache in a temporary directory that is
// removed when the benchmark ends.
func openCache(b *testing.B) *service.Cache {
	dir, err := os.MkdirTemp("", "fusionperf-cache-")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	c, err := service.OpenCache(dir)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func benchCacheGet(b *testing.B) {
	c := openCache(b)
	cell := cacheCell(0)
	if err := c.Put(cell); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(cell.Hash); !ok {
			b.Fatal("cached cell missing")
		}
	}
}

func benchCachePut(b *testing.B) {
	c := openCache(b)
	cells := make([]*service.CellResult, b.N)
	for i := range cells {
		cells[i] = cacheCell(uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for _, cell := range cells {
		if err := c.Put(cell); err != nil {
			b.Fatal(err)
		}
	}
}
