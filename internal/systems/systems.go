// Package systems assembles and runs the four architectures the paper
// compares (Section 4, "Systems compared"):
//
//   - SCRATCH: per-accelerator scratchpads filled/drained by an oracle
//     coherent DMA at the host LLC, windowed execution;
//   - SHARED:  one shared L1X cache per tile, a plain MESI L1 agent, with
//     address translation on the access path;
//   - FUSION:  private L0Xs + shared L1X under the ACC lease protocol, the
//     AX-TLB on the L1X miss path, MEI integration with host MESI;
//   - FUSION-Dx: FUSION plus direct producer->consumer write forwarding.
//
// Two post-paper systems make the placement choice dynamic (ROADMAP item 3):
//
//   - ADAPTIVE: Cohmeleon-style per-task placement — each accelerator task
//     runs from a scratchpad, an L0X, or uncached at the LLC, chosen by a
//     pluggable Policy from reuse/sharing counters (see policy.go);
//   - HYDRA: FUSION plus a deadline- and reuse-aware cacheability filter on
//     the L1X allocation path that bypasses allocation for low-reuse or
//     deadline-critical streams.
//
// Run executes a generated benchmark on one system and returns cycle,
// energy, and traffic measurements — the raw material for every table and
// figure in the evaluation.
package systems

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"fusion/internal/acc"
	"fusion/internal/accel"
	"fusion/internal/cache"
	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/faults"
	"fusion/internal/host"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/obs"
	"fusion/internal/ptrace"
	"fusion/internal/scratchpad"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/trace"
	"fusion/internal/vm"
	"fusion/internal/workloads"
)

// Kind selects the architecture.
type Kind int

const (
	Scratch Kind = iota
	Shared
	Fusion
	FusionDx
	Adaptive
	Hydra
)

func (k Kind) String() string {
	switch k {
	case Scratch:
		return "SCRATCH"
	case Shared:
		return "SHARED"
	case Fusion:
		return "FUSION"
	case FusionDx:
		return "FUSION-Dx"
	case Adaptive:
		return "ADAPTIVE"
	case Hydra:
		return "HYDRA"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds is the system registry: every Kind the package can run, in enum
// order. Anything that enumerates systems — the soak sweep's default
// matrix, the CLI's "-system all", the litmus random suite, the
// mutation-coverage report — derives its list from here, so a new Kind
// cannot be silently skipped.
func Kinds() []Kind {
	return []Kind{Scratch, Shared, Fusion, FusionDx, Adaptive, Hydra}
}

// KindNames returns the canonical lower-case spec name of every registered
// Kind, in enum order — the names ParseKind accepts.
func KindNames() []string {
	ks := Kinds()
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = strings.ToLower(k.String())
	}
	return out
}

// dmaControllerGap is the DMA engine's per-transfer state-machine occupancy
// (descriptor handling and completion bookkeeping), on top of the wire and
// LLC costs. The paper models "the complete state machine of the DMA
// controller"; transfers are serial.
const dmaControllerGap = 20

// hydraBypassThreshold is HYDRA's allocate-on-Nth-touch reuse bar: a line
// whose fill completes while the L1X has seen fewer than this many requests
// for it is served without allocating (a low-reuse stream). The second
// touch re-misses, crosses the bar, and allocates normally — the filter is
// self-limiting.
const hydraBypassThreshold = 2

// Agent IDs on the host fabric.
const (
	hostAgent mesi.AgentID = 1
	tileAgent mesi.AgentID = 2
	dmaAgent  mesi.AgentID = 3
)

// Config tunes a run.
type Config struct {
	Kind Kind
	// Large selects the AXC-Large configuration of Section 5.5 (8 KB
	// L0X/scratchpad, 256 KB L1X).
	Large bool
	// WriteThrough disables L0X write caching (Table 4).
	WriteThrough bool
	// MaxCycles bounds the simulation (safety net).
	MaxCycles uint64

	// --- Extensions and ablation knobs (defaults reproduce the paper) ---

	// Tiles splits the accelerators across multiple FUSION tiles
	// (round-robin by AXC id). The paper collocates all of an
	// application's accelerators on one tile and keeps "no inter-tile
	// communication"; setting Tiles > 1 quantifies why — shared data then
	// ping-pongs through host MESI.
	Tiles int
	// LeaseScale multiplies every function's ACC lease time (Table 3 LT),
	// for lease-sensitivity ablations. Zero means 1.0.
	LeaseScale float64
	// DMAOutstanding is the oracle DMA engine's transfer depth (default 1:
	// a serial controller state machine, as modeled in the paper).
	DMAOutstanding int
	// DMAGap is the DMA controller's per-transfer occupancy in cycles.
	DMAGap uint64
	// Tracer, when set, receives message-level protocol events from the
	// accelerator tile(s) and the host directory (see internal/ptrace).
	Tracer ptrace.Tracer
	// Paranoid scans the tile(s) for ACC protocol-invariant violations
	// every few cycles (single writer, lease containment, RMAP
	// consistency) and the host directory's MESI invariants (single owner,
	// sharer soundness); a violation fails the run at the cycle it appears.
	Paranoid bool
	// Faults, when non-nil and enabled, injects the plan's deterministic
	// order-preserving faults (link jitter, link stall windows, DRAM
	// latency spikes) into every interconnect and the memory controller. A
	// correct hierarchy absorbs any plan with degraded cycle counts and an
	// unchanged final memory image.
	Faults *faults.Plan
	// WatchdogCycles arms a forward-progress watchdog: if no component
	// reports progress (op retirement, MSHR free, link delivery) for this
	// many cycles, the run halts with a diagnostic dump naming the stuck
	// component. Zero disables the watchdog.
	WatchdogCycles uint64
	// NoIdleSkip forces per-cycle stepping, disabling the engine's
	// quiescence fast-forward. Results are identical either way (asserted
	// by TestIdleSkipInvariant); the knob exists for that A/B check and for
	// benchmarking the skip itself.
	NoIdleSkip bool
	// Scheduler selects the engine's event-queue implementation:
	// sim.SchedulerWheel (the default hierarchical time-wheel) or
	// sim.SchedulerHeap (the reference binary heap). The two are
	// observationally equivalent (asserted by TestSchedulerInvariant); the
	// knob exists for that A/B check and for benchmarking the wheel itself.
	// Empty means the default.
	Scheduler string
	// Policy selects the ADAPTIVE placement policy: "heuristic" (the
	// default, also selected by "") or "learned". Other systems ignore it.
	Policy string
	// DecisionWindow bounds how many leading iterations of a task the
	// ADAPTIVE profiler folds into its reuse/sharing counters (the
	// decision window of the Cohmeleon-style policy). Zero means
	// DefaultDecisionWindow. Other systems ignore it.
	DecisionWindow int
	// DeadlineCycles arms HYDRA's per-task deadline: each accelerator
	// task's deadline is its start cycle plus this budget, and once the
	// deadline passes the L1X bypasses allocation for the task's fills
	// (deadline-critical streaming). Zero leaves the deadline term of the
	// filter unarmed. Other systems ignore it.
	DeadlineCycles uint64
	// Observer, when set, receives a (cycle, agent, address, value, epoch)
	// observation for every load and store any agent performs, plus epoch
	// marks at phase boundaries — the litmus harness's value-checking feed
	// (see internal/obs and internal/litmus). Nil costs the hot path only a
	// nil check.
	Observer obs.Observer
	// AccMutations, DirMutations, PadMutations, and PolicyMutations arm
	// deliberate, test-only protocol/policy bugs for the litmus
	// mutation-kill validator. They must be nil in all real runs.
	AccMutations    *acc.Mutations
	DirMutations    *mesi.DirMutations
	PadMutations    *scratchpad.Mutations
	PolicyMutations *PolicyMutations
}

// DefaultConfig returns the paper's baseline settings for a system.
func DefaultConfig(k Kind) Config {
	return Config{
		Kind:           k,
		MaxCycles:      200_000_000,
		Tiles:          1,
		LeaseScale:     1.0,
		DMAOutstanding: 1,
		DMAGap:         dmaControllerGap,
	}
}

// normalize fills zero-valued knobs with their defaults so a zero Config
// still runs the paper's baseline.
func (c Config) normalize() Config {
	if c.MaxCycles == 0 {
		c.MaxCycles = 200_000_000
	}
	if c.Tiles <= 0 {
		c.Tiles = 1
	}
	if c.LeaseScale == 0 {
		c.LeaseScale = 1.0
	}
	if c.DMAOutstanding <= 0 {
		c.DMAOutstanding = 1
	}
	if c.DMAGap == 0 {
		c.DMAGap = dmaControllerGap
	}
	return c
}

// PhaseResult captures one phase's execution.
type PhaseResult struct {
	Function string
	AXC      int
	Cycles   uint64
	EnergyPJ float64 // total dynamic energy spent during the phase
	// DMACycles is the portion of the phase spent in DMA transfers
	// (SCRATCH only).
	DMACycles uint64
}

// Result is one benchmark x system measurement.
type Result struct {
	Benchmark string
	System    string
	Config    Config

	Cycles    uint64 // end-to-end program cycles
	DMACycles uint64 // total cycles serialized behind DMA (SCRATCH)

	Energy *energy.Meter
	Stats  *stats.Set

	Phases []PhaseResult
	// PerFunction aggregates phases by function name across repeats.
	PerFunction map[string]*PhaseResult

	WorkingSetBytes int
	DMABytes        int64
	DMATransfers    int64
	ForwardedBlocks int64

	// FinalVersions is the host backing store's view of every program line
	// after the run drained — compared against ExpectedVersions in tests.
	FinalVersions map[mem.VAddr]uint64
	// LineMap records the virtual->physical line mapping of every program
	// line. Populated only when Config.Observer is set: the litmus checker
	// uses it to fold host-side (physical) observations into the virtual
	// line namespace.
	LineMap map[mem.VAddr]mem.PAddr
}

// machine is the assembled common substrate.
type machine struct {
	eng    *sim.Engine
	st     *stats.Set
	mt     *energy.Meter
	model  energy.Model
	fab    *mesi.Fabric
	dir    *mesi.Directory
	dram   *dram.DRAM
	pt     *vm.PageTable
	hostL1 *mesi.Client
	core   *host.Core
	pid    mem.PID

	inj      *faults.Injector
	wd       *sim.Watchdog
	paranoid *invariantChecker
}

func newMachine() *machine {
	m := &machine{pid: 1}
	m.eng = sim.NewEngine()
	m.st = stats.NewSet()
	m.mt = energy.NewMeter()
	m.model = energy.Default()
	m.fab = mesi.NewFabric(m.eng, m.mt, m.st)
	m.dram = dram.New(m.eng, dram.DefaultConfig(), m.model, m.mt, m.st)
	m.dir = mesi.NewDirectory(m.fab, mesi.DefaultDirConfig(), m.dram, m.model, m.mt, m.st)
	m.dir.TileAgent = tileAgent
	m.pt = vm.NewPageTable()

	// Routes: host L1 sits near the L2; the accelerator tile and the DMA
	// engine's scratchpad targets are a chip-crossing away (Table 2:
	// 6 pJ/B on the L1X<->L2 link).
	// All chip-crossing routes serialize at one 8-byte flit per cycle, so a
	// 72-byte line transfer occupies the wire for 9 cycles — this is what
	// puts DMA transfers on the SCRATCH critical path (Section 5.1: FFT,
	// DISP, TRACK, HIST spend ~82% of their time in DMA).
	m.fab.SetRoutePair(hostAgent, mesi.DirID, mesi.Route{
		Latency: 6, PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
		Category: energy.CatLinkHost, StatName: "hostlink.l1"})
	m.fab.SetRoutePair(tileAgent, mesi.DirID, mesi.Route{
		Latency: 8, PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
		Category: energy.CatLinkHost, StatName: "hostlink.tile"})
	m.fab.SetRoutePair(dmaAgent, mesi.DirID, mesi.Route{
		Latency: 8, PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
		Category: energy.CatLinkHost, StatName: "hostlink.dma"})
	// Direct owner->requester data responses between agents.
	for _, a := range []mesi.AgentID{hostAgent, tileAgent, dmaAgent} {
		for _, b := range []mesi.AgentID{hostAgent, tileAgent, dmaAgent} {
			if a != b {
				m.fab.SetRoute(a, b, mesi.Route{Latency: 8,
					PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
					Category: energy.CatLinkHost, StatName: "hostlink.p2p"})
			}
		}
	}

	m.hostL1 = mesi.NewClient(m.fab, hostAgent, mesi.DefaultHostL1Config(m.model),
		m.model, m.mt, m.st)
	m.core = host.New(m.eng, "hostcore", host.DefaultConfig(), m.hostL1, m.st)
	return m
}

// addTileRoutes installs the chip-crossing routes for an extra tile agent.
func (m *machine) addTileRoutes(agent mesi.AgentID, statName string) {
	m.fab.SetRoutePair(agent, mesi.DirID, mesi.Route{
		Latency: 8, PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
		Category: energy.CatLinkHost, StatName: statName})
	for _, other := range []mesi.AgentID{hostAgent, tileAgent, dmaAgent} {
		m.fab.SetRoutePair(agent, other, mesi.Route{Latency: 8,
			PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
			Category: energy.CatLinkHost, StatName: "hostlink.p2p"})
	}
}

func (m *machine) translate(va mem.VAddr) mem.PAddr {
	return m.pt.Translate(m.pid, va)
}

// run drives the engine until pred holds. Protocol failures (including a
// watchdog timeout), cancellation aborts, and cycle-budget exhaustion all
// surface as a *sim.ProtocolError instead of a panic or a bare string —
// the budget case attaches the watchdog's diagnostic dump when one is
// armed, so a run that timed out still names what it was waiting on.
func (m *machine) run(max uint64, pred func() bool) error {
	_, ok, err := m.eng.RunE(max, pred)
	if err != nil {
		return err
	}
	if !ok {
		state := ""
		if m.wd != nil {
			state = m.wd.Dump()
		}
		return &sim.ProtocolError{
			Component: sim.ComponentBudget,
			Cycle:     m.eng.Now(),
			Message:   fmt.Sprintf("cycle budget of %d exhausted before the wait completed", max),
			State:     state,
		}
	}
	return nil
}

// cancelPollCycles is how often a context-carrying run polls for
// cancellation: every few thousand simulated cycles — a few milliseconds
// of wall time — so cancellation and deadlines take effect promptly
// without measurable per-cycle cost. Polling only ever aborts; it cannot
// change the results of a run that completes.
const cancelPollCycles = 4096

// Run executes benchmark b on the configured system.
func Run(b *workloads.Benchmark, cfg Config) (*Result, error) {
	return RunCtx(context.Background(), b, cfg)
}

// RunCtx is Run under a context: when ctx is canceled or its deadline
// passes, the simulation aborts promptly (within cancelPollCycles simulated
// cycles) with a *sim.ProtocolError whose component is sim.ComponentCanceled
// or sim.ComponentDeadline, carrying the context error as its cause and the
// watchdog's diagnostic dump (when one is armed) as its state.
func RunCtx(ctx context.Context, b *workloads.Benchmark, cfg Config) (*Result, error) {
	return runOn(ctx, newMachine(), b, cfg)
}

// runOn is RunCtx on a fresh machine that tests may have fitted with extra
// tickers (a step-counting probe) before the run assembles the system.
func runOn(ctx context.Context, m *machine, b *workloads.Benchmark, cfg Config) (*Result, error) {
	cfg = cfg.normalize()
	m.eng.SetIdleSkip(!cfg.NoIdleSkip)
	if cfg.Scheduler != "" {
		m.eng.SetScheduler(cfg.Scheduler)
	}
	res := &Result{
		Benchmark:   b.Program.Name,
		System:      cfg.Kind.String(),
		Config:      cfg,
		Energy:      m.mt,
		Stats:       m.st,
		PerFunction: make(map[string]*PhaseResult),
	}
	_, res.WorkingSetBytes = b.Program.WorkingSet()

	if cfg.Faults != nil && cfg.Faults.Enabled() {
		m.inj = faults.NewInjector(*cfg.Faults)
		m.fab.SetInjector(m.inj)
		m.dram.SetInjector(m.inj)
	}
	if cfg.WatchdogCycles > 0 {
		m.wd = sim.NewWatchdog(m.eng, cfg.WatchdogCycles)
		m.wd.AddDump("dir", m.dir.DumpState)
		m.wd.AddDump("hostl1", m.hostL1.DumpState)
		m.wd.AddDump("dram", m.dram.DumpState)
	}
	if cfg.Paranoid {
		m.paranoid = &invariantChecker{interval: 64, dir: m.dir,
			clients: []*mesi.Client{m.hostL1}}
		m.eng.Register(m.paranoid)
	}
	if ctx != nil && ctx.Done() != nil {
		m.eng.SetInterrupt(cancelPollCycles, func() error {
			cause := ctx.Err()
			if cause == nil {
				return nil
			}
			component, msg := sim.ComponentCanceled, "run canceled by caller"
			if errors.Is(cause, context.DeadlineExceeded) {
				component, msg = sim.ComponentDeadline, "wall-clock deadline exceeded"
			}
			state := ""
			if m.wd != nil {
				state = m.wd.Dump()
			}
			return &sim.ProtocolError{
				Component: component,
				Cycle:     m.eng.Now(),
				Message:   msg,
				State:     state,
				Cause:     cause,
			}
		})
	}

	// Preload inputs into the host LLC at version 1 (the host produced
	// them before offload).
	for _, va := range b.InputLines {
		m.dir.Preload(m.translate(va), 1)
	}

	if cfg.Tracer != nil {
		m.dir.SetTracer(cfg.Tracer)
	}
	if cfg.Observer != nil {
		m.hostL1.SetObserver(cfg.Observer)
	}
	if cfg.DirMutations != nil {
		m.dir.SetMutations(cfg.DirMutations)
	}

	var err error
	switch cfg.Kind {
	case Scratch:
		err = runScratch(m, b, cfg, res)
	case Shared:
		err = runShared(m, b, cfg, res)
	case Fusion, FusionDx, Hydra:
		err = runFusion(m, b, cfg, res)
	case Adaptive:
		err = runAdaptive(m, b, cfg, res)
	default:
		err = fmt.Errorf("unknown system %v", cfg.Kind)
	}
	if err != nil {
		return nil, err
	}
	if m.paranoid != nil && m.paranoid.violation != "" {
		return nil, fmt.Errorf("invariant violated at cycle %d: %s",
			m.paranoid.violatedAt, m.paranoid.violation)
	}

	res.Cycles = m.eng.Now()
	res.DMABytes = 64 * (m.st.Get("dma.reads") + m.st.Get("dma.writes"))
	res.DMATransfers = m.st.Get("dma.reads") + m.st.Get("dma.writes")

	// Capture final versions of every program line — including preloaded
	// inputs no phase touched — for verification.
	res.FinalVersions = make(map[mem.VAddr]uint64)
	if cfg.Observer != nil {
		res.LineMap = make(map[mem.VAddr]mem.PAddr)
	}
	capture := func(va mem.VAddr) {
		la := va.LineAddr()
		pa := m.translate(la)
		res.FinalVersions[la] = m.dir.Version(pa)
		if res.LineMap != nil {
			res.LineMap[la] = pa.LineAddr()
		}
	}
	for _, va := range b.InputLines {
		capture(va)
	}
	for i := range b.Program.Phases {
		lines, _ := b.Program.Phases[i].Inv.Lines()
		for _, va := range lines {
			capture(va)
		}
	}
	return res, nil
}

// OnChipPJ returns the dynamic energy of the on-chip hierarchy (caches,
// scratchpads, links, translation, datapath) — the quantity Figure 6a
// stacks. DRAM array energy and the memory-channel link are off-chip and
// excluded, as in the paper.
func (res *Result) OnChipPJ() float64 {
	return res.Energy.Total() - res.Energy.Get(energy.CatDRAM) - res.Energy.Get(energy.CatLinkMem)
}

// record appends a phase result and aggregates per function.
func (res *Result) record(fn string, axc int, cycles, dmaCycles uint64, pj float64) {
	res.Phases = append(res.Phases, PhaseResult{
		Function: fn, AXC: axc, Cycles: cycles, EnergyPJ: pj, DMACycles: dmaCycles})
	agg := res.PerFunction[fn]
	if agg == nil {
		agg = &PhaseResult{Function: fn, AXC: axc}
		res.PerFunction[fn] = agg
	}
	agg.Cycles += cycles
	agg.EnergyPJ += pj
	agg.DMACycles += dmaCycles
	res.DMACycles += dmaCycles
}

// accelFor builds one accelerator per AXC with the per-function MLP of
// Table 1.
func accelFor(m *machine, b *workloads.Benchmark) map[int]*accel.Accelerator {
	out := make(map[int]*accel.Accelerator)
	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if ph.Kind != trace.PhaseAccel {
			continue
		}
		if _, ok := out[ph.Inv.AXC]; ok {
			continue
		}
		cfg := accel.DefaultConfig()
		if mlp, ok := b.MLP[ph.Inv.Function]; ok && mlp > 0 {
			// Table 1 reports the function's *average* observed MLP; the
			// datapath's peak outstanding capacity sits above the average
			// (an average of 2 cannot arise from a cap of 2 unless memory
			// is saturated every cycle).
			cfg.MLP = mlp + 2
		}
		out[ph.Inv.AXC] = accel.New(m.eng, fmt.Sprintf("axc%d", ph.Inv.AXC),
			cfg, m.model, m.mt, m.st)
	}
	return out
}

// runHostPhase executes a host phase to completion.
func runHostPhase(m *machine, inv *trace.Invocation, cfg Config, res *Result) error {
	e0 := m.mt.Total()
	c0 := m.eng.Now()
	fired := false
	m.core.Start(inv, m.translate, func(uint64) { fired = true })
	if err := m.run(cfg.MaxCycles, func() bool { return fired }); err != nil {
		return fmt.Errorf("host phase %s: %w", inv.Function, err)
	}
	res.record(inv.Function, -1, m.eng.Now()-c0, 0, m.mt.Total()-e0)
	return nil
}

// ---------------------------------------------------------------- SCRATCH

func runScratch(m *machine, b *workloads.Benchmark, cfg Config, res *Result) error {
	model := m.model
	spadCfg := scratchpad.Config{SizeBytes: 4 << 10, AccessLat: 1,
		AccessPJ: model.ScratchSmall}
	if cfg.Large {
		spadCfg = scratchpad.Config{SizeBytes: 8 << 10, AccessLat: 1,
			AccessPJ: model.ScratchLarge}
	}
	dma := scratchpad.NewDMA(m.fab, dmaAgent, cfg.DMAOutstanding, cfg.DMAGap, m.st)
	axcs := accelFor(m, b)
	// Construct scratchpads in sorted AXC order so engine registration and
	// stats insertion order are identical run to run.
	ids := make([]int, 0, len(axcs))
	for axc := range axcs {
		ids = append(ids, axc)
	}
	sort.Ints(ids)
	pads := make(map[int]*scratchpad.Scratchpad)
	for _, axc := range ids {
		pads[axc] = scratchpad.New(m.eng, fmt.Sprintf("spad%d", axc), spadCfg, m.mt, m.st)
		if cfg.Observer != nil {
			pads[axc].SetObserver(cfg.Observer)
		}
		if cfg.PadMutations != nil {
			pads[axc].SetMutations(cfg.PadMutations)
		}
	}

	// live tracks lines holding earlier-produced data: the oracle must
	// DMA-in a stored line when the store only partially overwrites it.
	live := make(map[mem.VAddr]bool)
	for _, va := range b.InputLines {
		live[va.LineAddr()] = true
	}

	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if cfg.Observer != nil {
			cfg.Observer.Epoch(i, m.eng.Now())
		}
		if ph.Kind == trace.PhaseHost {
			if err := runHostPhase(m, &ph.Inv, cfg, res); err != nil {
				return err
			}
			_, w := ph.Inv.Lines()
			for la := range w {
				live[la] = true
			}
			continue
		}
		ax := axcs[ph.Inv.AXC]
		pad := pads[ph.Inv.AXC]
		phaseStart := m.eng.Now()
		e0 := m.mt.Total()
		dmaCycles, err := runScratchWindows(m, cfg, ax, pad, dma, &ph.Inv, live)
		if err != nil {
			return err
		}
		_, w := ph.Inv.Lines()
		for la := range w {
			live[la] = true
		}
		res.record(ph.Inv.Function, ph.Inv.AXC, m.eng.Now()-phaseStart, dmaCycles,
			m.mt.Total()-e0)
	}
	// Host L1 may cache output lines it wrote; flush so FinalVersions see
	// everything.
	return drainHost(m, cfg)
}

// runScratchWindows executes one invocation through a scratchpad in
// oracle-windowed style — DMA-in the window's read set, run the window's
// iterations, DMA-out the dirty lines — and returns the cycles serialized
// behind DMA. Shared by SCRATCH and by ADAPTIVE's scratchpad placement.
func runScratchWindows(m *machine, cfg Config, ax *accel.Accelerator,
	pad *scratchpad.Scratchpad, dma *scratchpad.DMA, inv *trace.Invocation,
	live map[mem.VAddr]bool) (uint64, error) {
	windows := scratchpad.Windows(inv, pad.CapacityLines(), live)
	var dmaCycles uint64
	for _, w := range windows {
		// DMA-in: push the window's read set into the scratchpad.
		t0 := m.eng.Now()
		remaining := len(w.ReadSet)
		for _, va := range w.ReadSet {
			va := va
			dma.ReadLine(m.translate(va), func(ver uint64) {
				pad.Fill(va, ver)
				remaining--
			})
		}
		if err := m.run(cfg.MaxCycles, func() bool { return remaining == 0 }); err != nil {
			return dmaCycles, fmt.Errorf("%s window DMA-in: %w", inv.Function, err)
		}
		dmaCycles += m.eng.Now() - t0

		// Execute the window.
		sub := trace.Invocation{
			Function:   inv.Function,
			AXC:        inv.AXC,
			Iterations: inv.Iterations[w.Start:w.End],
		}
		fired := false
		ax.Start(&sub, pad, func(uint64) { fired = true })
		if err := m.run(cfg.MaxCycles, func() bool { return fired }); err != nil {
			return dmaCycles, fmt.Errorf("%s window exec: %w", inv.Function, err)
		}

		// DMA-out: drain dirty lines back to the LLC.
		t0 = m.eng.Now()
		dirty := pad.DirtyLines()
		pendingWB := len(dirty)
		for _, dl := range dirty {
			dma.WriteLine(m.translate(dl.Addr), dl.Ver, dl.Delta, func(uint64) { pendingWB-- })
		}
		if err := m.run(cfg.MaxCycles, func() bool { return pendingWB == 0 }); err != nil {
			return dmaCycles, fmt.Errorf("%s window DMA-out: %w", inv.Function, err)
		}
		dmaCycles += m.eng.Now() - t0
		pad.Clear()
	}
	return dmaCycles, nil
}

// ---------------------------------------------------------------- SHARED

// sharedPort adapts the shared L1X (a plain MESI client) to accel.MemPort.
// Every access pays for what the SHARED design puts on the critical path:
// translation (TLB energy, and walk latency on a miss) and the AXC<->L1X
// switch crossing — a request flit in and a word-granularity response out.
// Figure 6c counts exactly these messages, and their link energy is one of
// the paper's three reasons SHARED "performs poorly in general"
// (Section 5.2).
type sharedPort struct {
	m      *machine
	client *mesi.Client
	tlb    *vm.TLB
	eng    *sim.Engine
	cMsgs  *stats.Counter
}

// Switch-crossing sizes for one SHARED access: an 8-byte request and a
// 16-byte response (word + tag/status).
const (
	sharedReqBytes  = 8
	sharedRespBytes = 16
)

func (p *sharedPort) Access(kind mem.AccessKind, va mem.VAddr, done func(uint64)) bool {
	if p.m.mt != nil {
		p.m.mt.Add(energy.CatLinkTile,
			p.m.model.LinkL0XL1X*float64(sharedReqBytes+sharedRespBytes))
	}
	p.cMsgs.Inc()
	pa, walk := p.tlb.Translate(p.m.pid, va)
	if walk == 0 {
		return p.client.Access(kind, pa, done)
	}
	// TLB miss: pay the walk, then access. The slot is consumed either way.
	p.eng.Schedule(walk, func(uint64) {
		for !p.client.Access(kind, pa, done) {
			// Extremely rare: MSHR full right after a walk; spin via retry.
			p.eng.Schedule(2, func(uint64) { p.Access(kind, va, done) })
			return
		}
	})
	return true
}

func runShared(m *machine, b *workloads.Benchmark, cfg Config, res *Result) error {
	size := 64 << 10
	pj := m.model.L1XAccessSmall
	var lat uint64 = 4
	if cfg.Large {
		size = 256 << 10
		pj = m.model.L1XAccessLarge
		lat = 6
	}
	client := mesi.NewClient(m.fab, tileAgent, mesi.ClientConfig{
		Name:           "sharedl1x",
		Cache:          cache.Params{SizeBytes: size, Ways: 8, LineBytes: mem.LineBytes},
		MSHRs:          16,
		HitLatency:     lat,
		EnergyCategory: energy.CatL1X,
		AccessPJ:       pj,
	}, m.model, m.mt, m.st)
	if m.paranoid != nil {
		m.paranoid.clients = append(m.paranoid.clients, client)
	}
	if m.wd != nil {
		m.wd.AddDump("sharedl1x", client.DumpState)
	}
	tlb := vm.NewTLB("sharedtlb", 32, 40, m.pt, m.model, m.mt, m.st)
	port := &sharedPort{m: m, client: client, tlb: tlb, eng: m.eng,
		cMsgs: m.st.Counter("sharedswitch.msgs")}
	if cfg.Observer != nil {
		client.SetObserver(cfg.Observer)
	}
	axcs := accelFor(m, b)

	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if cfg.Observer != nil {
			cfg.Observer.Epoch(i, m.eng.Now())
		}
		if ph.Kind == trace.PhaseHost {
			if err := runHostPhase(m, &ph.Inv, cfg, res); err != nil {
				return err
			}
			continue
		}
		ax := axcs[ph.Inv.AXC]
		c0 := m.eng.Now()
		e0 := m.mt.Total()
		fired := false
		ax.Start(&ph.Inv, port, func(uint64) { fired = true })
		if err := m.run(cfg.MaxCycles, func() bool { return fired }); err != nil {
			return fmt.Errorf("%s: %w", ph.Inv.Function, err)
		}
		res.record(ph.Inv.Function, ph.Inv.AXC, m.eng.Now()-c0, 0, m.mt.Total()-e0)
	}

	// Flush the tile cache so outputs land in the LLC, then the host L1.
	client.FlushAll()
	if err := m.run(cfg.MaxCycles, func() bool { return client.Outstanding() == 0 }); err != nil {
		return err
	}
	return drainHost(m, cfg)
}

// ---------------------------------------------------------------- FUSION

func runFusion(m *machine, b *workloads.Benchmark, cfg Config, res *Result) error {
	n := b.Program.NumAXCs()
	nTiles := cfg.Tiles
	if nTiles > n {
		nTiles = n
	}

	// AXC placement: round-robin across tiles. tileOf/localOf map a global
	// AXC id to its tile and its L0X slot within that tile.
	tileOf := func(axc int) int { return axc % nTiles }
	localOf := func(axc int) int { return axc / nTiles }
	perTile := make([]int, nTiles)
	for axc := 0; axc < n; axc++ {
		t := tileOf(axc)
		if localOf(axc)+1 > perTile[t] {
			perTile[t] = localOf(axc) + 1
		}
	}

	tiles := make([]*acc.Tile, nTiles)
	for t := 0; t < nTiles; t++ {
		var tcfg acc.TileConfig
		if cfg.Large {
			tcfg = acc.LargeTileConfig(perTile[t], m.model)
		} else {
			tcfg = acc.SmallTileConfig(perTile[t], m.model)
		}
		tcfg.Agent = tileAgent + mesi.AgentID(t)
		tcfg.PID = m.pid
		tcfg.EnableDx = cfg.Kind == FusionDx
		tcfg.L0X.WriteThrough = cfg.WriteThrough
		tcfg.Injector = m.inj
		if t > 0 {
			tcfg.StatPrefix = fmt.Sprintf("t%d.", t)
			m.addTileRoutes(tcfg.Agent, fmt.Sprintf("hostlink.tile%d", t))
		}
		tiles[t] = acc.NewTile(m.eng, m.fab, m.pt, tcfg, m.model, m.mt, m.st)
		if cfg.Kind == Hydra {
			tiles[t].L1X.EnableBypassFilter(hydraBypassThreshold, m.model.PolicyCheck)
		}
		if cfg.Tracer != nil {
			tiles[t].SetTracer(cfg.Tracer)
		}
		if cfg.Observer != nil {
			tiles[t].SetObserver(cfg.Observer)
		}
		if cfg.AccMutations != nil {
			tiles[t].SetMutations(cfg.AccMutations)
		}
	}
	if m.paranoid != nil {
		m.paranoid.tiles = tiles
	}
	if m.wd != nil {
		for t, tile := range tiles {
			tile := tile
			m.wd.AddDump(fmt.Sprintf("tile%d", t), tile.DumpState)
		}
	}
	axcs := accelFor(m, b)

	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if cfg.Observer != nil {
			cfg.Observer.Epoch(i, m.eng.Now())
		}
		if ph.Kind == trace.PhaseHost {
			if err := runHostPhase(m, &ph.Inv, cfg, res); err != nil {
				return err
			}
			continue
		}
		ax := axcs[ph.Inv.AXC]
		tile := tiles[tileOf(ph.Inv.AXC)]
		l0 := tile.L0Xs[localOf(ph.Inv.AXC)]
		l0.SetLeaseTime(scaleLease(ph.Inv.LeaseTime, cfg.LeaseScale))

		// HYDRA: arm the task deadline. Fills requested after it passes
		// bypass L1X allocation (the deadline term of the filter).
		if cfg.Kind == Hydra && cfg.DeadlineCycles > 0 {
			tile.L1X.SetDeadline(m.eng.Now() + cfg.DeadlineCycles)
		}

		// FUSION-Dx: install the trace-derived forwarding table for this
		// producer phase (Section 3.2). Forwarding links exist only within
		// a tile; cross-tile consumers fall back to the L1X writeback.
		l0.ClearForwards()
		if cfg.Kind == FusionDx {
			if f, ok := b.Forwards[i]; ok && tileOf(f.Consumer) == tileOf(ph.Inv.AXC) {
				for _, la := range f.Lines {
					l0.MarkForward(la, acc.AXCID(localOf(f.Consumer)))
				}
			}
		}

		c0 := m.eng.Now()
		e0 := m.mt.Total()
		fired := false
		ax.Start(&ph.Inv, l0, func(uint64) { fired = true })
		if err := m.run(cfg.MaxCycles, func() bool { return fired }); err != nil {
			return fmt.Errorf("%s: %w", ph.Inv.Function, err)
		}
		// Invocation end: self-eviction drains dirty lines (and triggers
		// any forwards).
		l0.Drain()
		res.record(ph.Inv.Function, ph.Inv.AXC, m.eng.Now()-c0, 0, m.mt.Total()-e0)
	}

	// Drain the tiles completely: let leases lapse, flush the L1Xs.
	outstanding := func() bool {
		for _, tile := range tiles {
			if tile.Outstanding() > 0 {
				return false
			}
		}
		return true
	}
	for _, tile := range tiles {
		tile.Drain()
	}
	if err := m.run(cfg.MaxCycles, outstanding); err != nil {
		return err
	}
	// Wait out any open epochs so FlushAll may evict everything.
	maxLease := uint64(0)
	fns := make([]string, 0, len(b.LeaseTimes))
	for fn := range b.LeaseTimes {
		fns = append(fns, fn)
	}
	sort.Strings(fns)
	for _, fn := range fns {
		if lt := scaleLease(b.LeaseTimes[fn], cfg.LeaseScale); lt > maxLease {
			maxLease = lt
		}
	}
	idleUntil := m.eng.Now() + maxLease + 64
	for m.eng.Now() < idleUntil {
		// This wait is intentional (leases must lapse before FlushAll), so
		// keep the watchdog fed while nothing retires.
		m.eng.Progress()
		m.eng.Step()
	}
	for _, tile := range tiles {
		tile.L1X.FlushAll()
	}
	if err := m.run(cfg.MaxCycles, outstanding); err != nil {
		return err
	}
	for _, tile := range tiles {
		res.ForwardedBlocks += tile.ForwardedBlocks()
	}
	return drainHost(m, cfg)
}

// invariantChecker is the paranoid-mode ticker: it sweeps the ACC protocol
// invariants of every tile and the host directory's MESI invariants on a
// fixed cadence and latches the first violation. Transient (in-flight)
// states are skipped by both checkers, so mid-transaction disagreement
// never false-positives.
//
// It deliberately does not implement sim.IdleTicker: a paranoid run keeps
// the engine stepping every cycle so the sweep cadence is never skipped.
type invariantChecker struct {
	tiles      []*acc.Tile
	dir        *mesi.Directory
	clients    []*mesi.Client
	interval   uint64
	violation  string
	violatedAt uint64
}

func (c *invariantChecker) Name() string { return "paranoid" }

func (c *invariantChecker) Tick(now uint64) {
	if c.violation != "" || now%c.interval != 0 {
		return
	}
	for _, t := range c.tiles {
		if bad := t.CheckInvariants(now); len(bad) > 0 {
			c.violation = bad[0]
			c.violatedAt = now
			return
		}
	}
	if c.dir != nil {
		if bad := mesi.CheckInvariants(c.dir, c.clients); len(bad) > 0 {
			c.violation = bad[0]
			c.violatedAt = now
		}
	}
}

// scaleLease applies the lease-sensitivity ablation factor.
func scaleLease(lt uint64, scale float64) uint64 {
	if scale == 1.0 || scale <= 0 {
		return lt
	}
	s := uint64(float64(lt) * scale)
	if s == 0 {
		s = 1
	}
	return s
}

// drainHost flushes the host L1 and waits for quiescence.
func drainHost(m *machine, cfg Config) error {
	m.hostL1.FlushAll()
	return m.run(cfg.MaxCycles, func() bool {
		return m.hostL1.Outstanding() == 0 && m.eng.Pending() == 0
	})
}

// ExpectedVersions computes the golden final version of every line under
// sequential program semantics: inputs start at version 1; every store
// increments its line.
func ExpectedVersions(b *workloads.Benchmark) map[mem.VAddr]uint64 {
	out := make(map[mem.VAddr]uint64)
	for _, va := range b.InputLines {
		out[va.LineAddr()] = 1
	}
	for i := range b.Program.Phases {
		inv := &b.Program.Phases[i].Inv
		for j := range inv.Iterations {
			for _, a := range inv.Iterations[j].Stores {
				out[a.LineAddr()]++
			}
		}
	}
	return out
}
