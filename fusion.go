// Package fusion is a from-scratch reproduction of "Fusion: Design
// Tradeoffs in Coherent Cache Hierarchies for Accelerators" (Kumar,
// Shriraman, Vedula — ISCA 2015), built as a cycle-level simulator in pure
// Go with no dependencies outside the standard library.
//
// The paper studies how to feed data to fixed-function accelerators carved
// out of sequential programs, comparing four memory-system organizations
// for an accelerator tile attached to a host multicore:
//
//   - SCRATCH:   per-accelerator scratchpads filled and drained by an
//     oracle coherent DMA engine at the host LLC;
//   - SHARED:    one shared cache per tile, participating in host MESI;
//   - FUSION:    private per-accelerator L0X caches plus a shared L1X,
//     kept coherent by ACC — a timestamp/lease self-invalidation
//     protocol — with the L1X joining host MESI as an MEI agent;
//   - FUSION-Dx: FUSION plus direct producer-to-consumer write forwarding
//     between L0X caches.
//
// # Quick start
//
//	b := fusion.LoadBenchmark("adpcm")
//	res, err := fusion.Run(b, fusion.DefaultConfig(fusion.FusionSystem))
//	if err != nil { ... }
//	fmt.Println(res.Cycles, res.Energy.Total())
//
// Every table and figure of the paper's evaluation can be regenerated with
// an Experiments runner (or the fusionbench command):
//
//	exp := fusion.NewExperiments()
//	exp.Print(os.Stdout, "all")
//
// # What is simulated
//
// The simulator models, from scratch: a deterministic cycle-level kernel;
// a 3-hop directory MESI protocol over an 8-bank NUCA LLC backed by a
// 4-channel open-page DRAM model; the ACC lease protocol with write
// caching, self-invalidation, self-downgrade, MEI integration, and write
// forwarding; address translation with the AX-TLB on the L1X miss path and
// the AX-RMAP reverse map; an oracle windowed DMA engine; Aladdin-style
// accelerator datapaths; a trace-driven out-of-order host core; and a
// CACTI-flavoured energy model. The seven benchmarks (FFT, Disparity,
// Tracking, ADPCM, Susan, Filter, Histogram) are regenerated synthetically
// from the paper's published per-function characteristics; see
// internal/workloads and DESIGN.md for the calibration details.
package fusion

import (
	"context"
	"io"

	"fusion/internal/experiments"
	"fusion/internal/faults"
	"fusion/internal/litmus"
	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/systems"
	"fusion/internal/trace"
	"fusion/internal/workloads"
)

// System selects one of the architectures under study.
type System = systems.Kind

// The four systems of the paper's evaluation, plus the adaptive-placement
// and deadline-aware extensions.
const (
	ScratchSystem  System = systems.Scratch
	SharedSystem   System = systems.Shared
	FusionSystem   System = systems.Fusion
	FusionDxSystem System = systems.FusionDx
	AdaptiveSystem System = systems.Adaptive
	HydraSystem    System = systems.Hydra
)

// Systems lists every registered system's canonical name in enum order —
// the names ParseSystem accepts and the sweep surfaces ("-system all",
// soak, litmus) iterate.
func Systems() []string { return systems.KindNames() }

// Config tunes a simulation run: an embedded Spec, which declares every
// knob that can change the result, plus the hooks that never do
// (Paranoid, Observer, test-only mutations).
type Config = systems.Config

// DefaultConfig returns the paper's baseline settings for a system.
func DefaultConfig(s System) Config { return systems.DefaultConfig(s) }

// Result is one benchmark x system measurement: cycles, an energy meter,
// raw statistics counters, per-phase breakdowns, and DMA/forwarding
// traffic.
type Result = systems.Result

// Benchmark is a generated workload: the program trace, preloaded input
// lines, per-function lease times and MLP, and the FUSION-Dx forwarding
// sets. Construct custom ones from Program values, or load the paper's
// seven via LoadBenchmark.
type Benchmark = workloads.Benchmark

// Program, Phase, Invocation, and Iteration describe workloads: a Program
// is an ordered pipeline of phases migrating between accelerators and the
// host, exactly as in the paper's Figure 1.
type (
	Program    = trace.Program
	Phase      = trace.Phase
	Invocation = trace.Invocation
	Iteration  = trace.Iteration
)

// Phase kinds.
const (
	PhaseAccel = trace.PhaseAccel
	PhaseHost  = trace.PhaseHost
)

// VAddr is a virtual address as used in workload traces.
type VAddr = mem.VAddr

// Benchmarks lists the seven benchmark names in the paper's order.
func Benchmarks() []string { return workloads.Names() }

// LoadBenchmark generates one of the paper's benchmarks by name ("fft",
// "disp", "track", "adpcm", "susan", "filt", "hist"). It panics on an
// unknown name; use Benchmarks for the valid set.
func LoadBenchmark(name string) *Benchmark { return workloads.Get(name) }

// Run executes a benchmark on the configured system and returns the
// measurements.
func Run(b *Benchmark, cfg Config) (*Result, error) { return systems.Run(b, cfg) }

// RunCtx is Run under a context: cancellation or a deadline aborts the
// simulation within a few thousand simulated cycles, surfacing a
// *ProtocolError that unwraps to the context's error (check with
// errors.Is or IsCancellation). The simulation itself never reads the
// wall clock, so a run that completes is byte-identical with or without a
// context.
func RunCtx(ctx context.Context, b *Benchmark, cfg Config) (*Result, error) {
	return systems.RunCtx(ctx, b, cfg)
}

// Spec is the canonical, serializable description of one simulation run —
// a (benchmark, system, knobs) cell. Equivalent configurations normalize
// to the same Spec.Key()/Spec.Hash(), which is what the experiments memo
// and the fusiond result cache key on.
type Spec = systems.Spec

// SpecOf captures a (benchmark, config) pair as a normalized Spec.
func SpecOf(bench string, cfg Config) Spec { return systems.SpecOf(bench, cfg) }

// ParseSystem resolves a system name ("scratch", "shared", "fusion",
// "fusion-dx", "adaptive", "hydra" and common aliases, case-insensitive)
// to its Kind.
func ParseSystem(name string) (System, bool) { return systems.ParseKind(name) }

// IsCancellation reports whether err is a context cancellation or
// deadline knock-on rather than a genuine simulator failure.
func IsCancellation(err error) bool { return sim.IsCancellation(err) }

// RandomBenchmark generates a seeded random program for differential
// testing; see workloads.RandomParams for knobs.
func RandomBenchmark(seed int64) *Benchmark {
	return workloads.Random(seed, workloads.DefaultRandomParams())
}

// SaveBenchmark serializes a benchmark (its full trace) as JSON.
func SaveBenchmark(w io.Writer, b *Benchmark) error { return workloads.SaveJSON(w, b) }

// LoadBenchmarkJSON reads a benchmark written by SaveBenchmark or produced
// by an external trace extractor in the same schema. The benchmark is
// validated on load.
func LoadBenchmarkJSON(r io.Reader) (*Benchmark, error) { return workloads.LoadJSON(r) }

// ValidateBenchmark checks a (typically hand-built) benchmark for the
// structural problems that would otherwise surface as simulator panics.
func ValidateBenchmark(b *Benchmark) []error { return workloads.Validate(b) }

// ComputeForwards derives a benchmark's FUSION-Dx forwarding sets from its
// program trace — the paper's "post process the trace to identify the
// stores to be forwarded" (Section 3.2). LoadBenchmark does this
// automatically; call it yourself after building a custom Benchmark.
func ComputeForwards(b *Benchmark) { workloads.ComputeForwards(b) }

// ExpectedVersions returns the golden final state of every cache line
// under sequential program semantics — what any correct system must leave
// in memory. Compare against Result.FinalVersions.
func ExpectedVersions(b *Benchmark) map[VAddr]uint64 {
	return systems.ExpectedVersions(b)
}

// Protocol tracing: set Config.Observer to observe every coherence
// transition the ACC protocol and the host directory take — lease grants,
// write epochs, self-invalidations, GTIME stalls, host forwards (the
// message sequences of the paper's Figures 4 and 5). The observer also
// receives every load, store and fill and a mark at each phase boundary;
// Kind.Protocol tells the protocol transitions apart.
type (
	// ProtocolEvent is one observed event.
	ProtocolEvent = obs.Event
	// TraceCollector accumulates events in memory.
	TraceCollector = obs.Collector
	// TraceWriter streams formatted events to an io.Writer.
	TraceWriter = obs.Writer
)

// Robustness: fault injection, watchdog, structured failures. A FaultPlan
// describes deterministic performance perturbations (link jitter, link
// stalls, DRAM latency spikes) replayed bit-identically from its seed; set
// Config.Faults to inject it and Config.WatchdogCycles to arm the
// forward-progress watchdog. Failures — protocol violations, watchdog
// timeouts — surface from Run as a *ProtocolError naming the component,
// cycle, and a state excerpt.
type (
	// FaultPlan is a serializable deterministic fault-injection plan.
	FaultPlan = faults.Plan
	// ProtocolError is a structured simulator failure; use errors.As.
	ProtocolError = sim.ProtocolError
)

// RandomFaultPlan derives a reproducible fault plan from a seed.
func RandomFaultPlan(seed uint64) FaultPlan { return faults.RandomPlan(seed) }

// LoadFaultPlan reads a JSON fault plan written by FaultPlan.Save.
func LoadFaultPlan(r io.Reader) (FaultPlan, error) { return faults.LoadPlan(r) }

// LoadFaultPlanFile reads a JSON fault plan from a file.
func LoadFaultPlanFile(path string) (FaultPlan, error) { return faults.LoadPlanFile(path) }

// SweepItem is one independent (benchmark, config) cell of a sweep; see
// RunSweep.
type SweepItem = systems.SweepItem

// SweepError attaches the originating sweep cell's key to a failed run.
// Use errors.As to reach it (and the underlying ProtocolError) from a
// sweep or experiment failure.
type SweepError = systems.SweepError

// RunSweep executes every item on a bounded worker pool (workers <= 0:
// GOMAXPROCS) and returns results in item order, so reports built from
// them are byte-identical for any worker count. The first failing item in
// item order is returned as a *SweepError.
func RunSweep(items []SweepItem, workers int) ([]*Result, error) {
	return systems.RunAll(items, workers)
}

// RunSweepCtx is RunSweep under a context. The sweep stops promptly on
// its first failure — the failing cell cancels the remaining work,
// in-flight runs abort, unstarted cells are skipped — and the returned
// *SweepError names the root-cause cell, never a cancellation knock-on.
// Canceling ctx stops the sweep the same way.
func RunSweepCtx(ctx context.Context, items []SweepItem, workers int) ([]*Result, error) {
	return systems.RunAllCtx(ctx, items, workers)
}

// Experiments regenerates the paper's tables and figures. Simulation runs
// are memoized across experiments within one runner, which is safe for
// concurrent use: each distinct cell simulates exactly once no matter how
// many goroutines request it. SetWorkers bounds the parallel prefetch pool
// (1 forces sequential execution); worker count never changes output.
type Experiments = experiments.Runner

// NewExperiments returns an empty experiment runner.
func NewExperiments() *Experiments { return experiments.NewRunner() }

// ExperimentNames lists the regenerable artifacts in the paper's order.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment prints one named experiment (or "all") to w.
func RunExperiment(w io.Writer, name string) error {
	return experiments.NewRunner().Print(w, name)
}

// LitmusReport is the outcome of one coherence litmus run: the recorded
// observation count plus every visibility-model violation (each naming the
// agent, line, cycle, and the write it should have observed).
type (
	LitmusReport    = litmus.Report
	LitmusViolation = litmus.Violation
)

// LitmusCaseNames lists the directed litmus cases in suite order.
func LitmusCaseNames() []string { return litmus.CaseNames() }

// RunLitmus runs the directed litmus case `name` (or "all") on each of its
// declared systems, value-checking every recorded load and store against
// the system's visibility model (see internal/litmus).
func RunLitmus(name string) ([]*LitmusReport, error) {
	return litmus.RunNamed(name)
}
