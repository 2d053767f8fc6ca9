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
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/obs"
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

// kindNames is KindNames indexed by Kind, computed once: every run and spec
// key parses and canonicalizes a system name.
var kindNames = KindNames()

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

// Config is a run's Spec plus the hooks that never change its result. Run
// takes the benchmark itself and ignores Spec.Bench.
type Config struct {
	Spec
	// Paranoid scans the tile(s) for ACC protocol-invariant violations
	// every few cycles (single writer, lease containment, RMAP
	// consistency) and the host directory's MESI invariants (single owner,
	// sharer soundness); a violation fails the run at the cycle it appears.
	Paranoid bool
	// Observer, when set, receives one obs.Event for every load, store and
	// fill any agent performs, every protocol transition of the
	// accelerator tile(s) and the host directory, and a phase mark at
	// every phase boundary — the litmus harness's value-checking feed and
	// the message-level protocol trace (see internal/obs and
	// internal/litmus). Nil costs the hot path only a nil check.
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
	return Config{Spec: Spec{System: k.String()}.Normalized()}
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

	// Counts read from the built components' counter handles once the run
	// has drained (Stats names the same cells); tile counts sum every tile.
	DMATransfers     int64                // DMA line reads + writes (Figure 6d)
	DMABytes         int64                // bytes those transfers moved
	ForwardedBlocks  int64                // FUSION-Dx L0X->L0X forwards (Table 5)
	AXCMLPMilli      []int64              // emergent MLP x1000 by AXC id, 0 if unused (Table 1)
	TileUp, TileDown interconnect.Traffic // L0X->L1X and L1X->L0X links (Fig. 6c, Table 4)
	SharedSwitchMsgs int64                // SHARED's AXC<->L1X switch crossings (Fig. 6c)
	// Host-fabric route groups: every tile's route to the L2 (SHARED's L1X
	// is tile 0), the DMA engine's, and the owner->requester data routes.
	HostTiles, HostDMA, HostP2P interconnect.Traffic
	TLBLookups, RMAPLookups     int64 // AX-TLB and AX-RMAP lookups (Table 6)
	LeaseGrants                 int64 // L1X read + write lease grants
	DirFwdsToTile               int64 // host requests forwarded to the tiles (Table 6)
	Faults                      int64 // injected link delays and DRAM spikes

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

	// kind is the system the run builds, and end the cycle at which its
	// cycle budget runs out.
	kind Kind
	end  uint64

	inj      *faults.Injector
	wd       *sim.Watchdog
	paranoid *invariantChecker

	// What the run built (nil if not), for count.
	axcs   []*accel.Accelerator
	tiles  []*acc.Tile
	dma    *scratchpad.DMA
	shared *sharedPort

	// Reused by every phase and window, so they allocate nothing per call:
	// await's completion flag, set by done and read by hasFired; the
	// translate method value; the window invocation a scratchpad runs,
	// which its accelerator holds only until the window's await returns;
	// and the window's dirty lines.
	fired       bool
	done        func(uint64)
	hasFired    func() bool
	translateFn func(mem.VAddr) mem.PAddr
	sub         trace.Invocation
	dirty       []scratchpad.DirtyLine
}

func newMachine() *machine {
	m := &machine{pid: 1}
	m.done = func(uint64) { m.fired = true }
	m.hasFired = func() bool { return m.fired }
	m.translateFn = m.translate
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

// addTileRoutes installs the chip-crossing routes for an extra tile agent:
// one to the directory, and owner->requester routes to the host, tile 0 and
// DMA agents and to every earlier tile agent. Tiles are built in agent
// order, so every pair of agents is routed once both exist.
func (m *machine) addTileRoutes(agent mesi.AgentID, statName string) {
	m.fab.SetRoutePair(agent, mesi.DirID, mesi.Route{
		Latency: 8, PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
		Category: energy.CatLinkHost, StatName: statName})
	for other := hostAgent; other <= dmaAgent || other < agent; other++ {
		m.fab.SetRoutePair(agent, other, mesi.Route{Latency: 8,
			PJPerByte: m.model.LinkL1XL2, FlitsPerCycle: 1,
			Category: energy.CatLinkHost, StatName: "hostlink.p2p"})
	}
}

func (m *machine) translate(va mem.VAddr) mem.PAddr {
	return m.pt.Translate(m.pid, va)
}

// run drives the engine until pred holds. Protocol failures (including a
// watchdog timeout), cancellation aborts, and the run's cycle budget
// running out all surface as a *sim.ProtocolError instead of a panic or a
// bare string — the budget case attaches the watchdog's diagnostic dump
// when one is armed, so a run that timed out still names what it was
// waiting on.
func (m *machine) run(pred func() bool) error { return m.runUntil(m.end, pred) }

// runUntil is run stopped at cycle until, or at the run's end if that comes
// first. pred must hold by cycle until.
func (m *machine) runUntil(until uint64, pred func() bool) error {
	_, ok, err := m.eng.RunE(min(until, m.end)-m.eng.Now(), pred)
	if err != nil || ok {
		return err
	}
	state := ""
	if m.wd != nil {
		state = m.wd.Dump()
	}
	return &sim.ProtocolError{
		Component: sim.ComponentBudget,
		Cycle:     m.eng.Now(),
		Message:   fmt.Sprintf("cycle budget of %d exhausted before the wait completed", m.end),
		State:     state,
	}
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
	cfg.Spec = cfg.Spec.Normalized()
	kind, ok := ParseKind(cfg.System)
	if !ok {
		return nil, fmt.Errorf("unknown system %q", cfg.System)
	}
	m.kind, m.end = kind, sim.SatAdd(m.eng.Now(), cfg.MaxCycles)
	res := &Result{
		Benchmark:   b.Program.Name,
		System:      kind.String(),
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

	m.dir.SetObserver(cfg.Observer)
	m.hostL1.SetObserver(cfg.Observer)
	if cfg.DirMutations != nil {
		m.dir.SetMutations(cfg.DirMutations)
	}

	var err error
	switch kind {
	case Scratch:
		err = runScratch(m, b, cfg, res)
	case Shared:
		err = runShared(m, b, cfg, res)
	case Fusion, FusionDx, Hydra:
		err = runFusion(m, b, cfg, res)
	case Adaptive:
		err = runAdaptive(m, b, cfg, res)
	}
	if err == nil {
		// The host L1 may cache output lines it wrote; flush it so
		// FinalVersions see everything.
		m.hostL1.FlushAll()
		err = m.run(func() bool {
			return m.hostL1.Outstanding() == 0 && m.eng.Pending() == 0
		})
	}
	if err != nil {
		return nil, err
	}
	if m.paranoid != nil && m.paranoid.violation != "" {
		return nil, fmt.Errorf("invariant violated at cycle %d: %s",
			m.paranoid.violatedAt, m.paranoid.violation)
	}

	res.Cycles = m.eng.Now()
	m.count(res)

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

// count fills the result's typed counts from the handles of the components
// the run built.
func (m *machine) count(res *Result) {
	res.AXCMLPMilli = make([]int64, len(m.axcs))
	for axc, ax := range m.axcs {
		if ax != nil {
			res.AXCMLPMilli[axc] = ax.MLPMilli()
		}
	}
	for _, t := range m.tiles {
		up, down := t.Links()
		res.TileUp, res.TileDown = res.TileUp.Add(up), res.TileDown.Add(down)
		res.TLBLookups += t.TLB.Lookups()
		res.RMAPLookups += t.RMAP.Lookups()
		res.LeaseGrants += t.L1X.LeaseGrants()
		res.ForwardedBlocks += t.ForwardedBlocks()
		res.DirFwdsToTile += t.L1X.HostFwds()
		res.Faults += t.Faults()
	}
	if m.shared != nil {
		res.SharedSwitchMsgs = m.shared.cMsgs.Value()
	}
	// Tile t is agent tileAgent+t; without tiles, tileAgent is SHARED's L1X.
	for t := 0; t < max(1, len(m.tiles)); t++ {
		res.HostTiles = res.HostTiles.Add(m.fab.Link(tileAgent+mesi.AgentID(t), mesi.DirID).Traffic())
	}
	res.HostP2P = m.fab.Link(hostAgent, tileAgent).Traffic()
	// From 2 tiles on, tile 1 takes dmaAgent's id and route, so read the
	// DMA route only when a DMA engine was built.
	if m.dma != nil {
		res.HostDMA = m.fab.Link(dmaAgent, mesi.DirID).Traffic()
		res.DMATransfers = m.dma.Transfers()
		res.DMABytes = 64 * res.DMATransfers
	}
	if len(m.tiles) == 0 {
		res.DirFwdsToTile = m.dir.FwdsToTile() // SHARED's L1X is the directory's TileAgent
	}
	res.Faults += m.fab.Faults() + m.dram.FaultSpikes()
}

// OnChipPJ returns the dynamic energy of the on-chip hierarchy (caches,
// scratchpads, links, translation, datapath) — the quantity Figure 6a
// stacks. DRAM array energy and the memory-channel link are off-chip and
// excluded, as in the paper.
func (res *Result) OnChipPJ() float64 {
	return res.Energy.Total() - res.Energy.Get(energy.CatDRAM) - res.Energy.Get(energy.CatLinkMem)
}

// record appends a phase result and aggregates per function.
func (res *Result) record(r PhaseResult) {
	res.Phases = append(res.Phases, r)
	agg := res.PerFunction[r.Function]
	if agg == nil {
		agg = &PhaseResult{Function: r.Function, AXC: r.AXC}
		res.PerFunction[r.Function] = agg
	}
	agg.Cycles += r.Cycles
	agg.EnergyPJ += r.EnergyPJ
	agg.DMACycles += r.DMACycles
	res.DMACycles += r.DMACycles
}

// accelFor builds one accelerator per AXC with the per-function MLP of
// Table 1, indexed by AXC id (nil for an id no phase uses). Accelerators
// are built in order of first use.
func accelFor(m *machine, b *workloads.Benchmark) []*accel.Accelerator {
	out := make([]*accel.Accelerator, b.Program.NumAXCs())
	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		if ph.Kind != trace.PhaseAccel || out[ph.Inv.AXC] != nil {
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
	m.axcs = out
	return out
}

// phaseHooks is what a system supplies to runPhases: where an accelerator
// phase's data lives and how the phase runs. The system's state (ports,
// pads, tiles, policy) lives in the closures. exec is required; prepare and
// after are optional.
type phaseHooks struct {
	// prepare sets up an accelerator phase before its cycle and energy
	// marks are taken, so work it charges is not part of the phase's result.
	prepare func(inv *trace.Invocation)
	// exec runs accelerator phase i to completion and returns the cycles it
	// spent in DMA transfers.
	exec func(i int, inv *trace.Invocation) (dmaCycles uint64, err error)
	// after sees every completed phase, host (AXC -1) or accelerator, with
	// its recorded result.
	after func(inv *trace.Invocation, r PhaseResult)
}

// runPhases runs the program's phases in order on every system: it marks
// each phase's epoch for the observer, runs host phases on the host core
// and accelerator phases through h, and records every phase's cycles and
// energy.
func runPhases(m *machine, b *workloads.Benchmark, cfg Config, res *Result, h phaseHooks) error {
	for i := range b.Program.Phases {
		ph := &b.Program.Phases[i]
		inv := &ph.Inv
		if cfg.Observer != nil {
			cfg.Observer.Record(obs.Event{Cycle: m.eng.Now(), Kind: obs.Phase, Epoch: int32(i)})
		}
		host := ph.Kind == trace.PhaseHost
		if !host && h.prepare != nil {
			h.prepare(inv)
		}
		r := PhaseResult{Function: inv.Function, AXC: -1}
		c0, e0 := m.eng.Now(), m.mt.Total()
		if host {
			err := m.await(func(done func(uint64)) { m.core.Start(inv, m.translateFn, done) })
			if err != nil {
				return fmt.Errorf("host phase %s: %w", inv.Function, err)
			}
		} else {
			r.AXC = inv.AXC
			var err error
			if r.DMACycles, err = h.exec(i, inv); err != nil {
				return err
			}
		}
		r.Cycles, r.EnergyPJ = m.eng.Now()-c0, m.mt.Total()-e0
		res.record(r)
		if h.after != nil {
			h.after(inv, r)
		}
	}
	return nil
}

// await calls start with the machine's completion callback and runs the
// engine until that callback fires. One flag serves every await: each
// returns before the next starts.
func (m *machine) await(start func(done func(uint64))) error {
	m.fired = false
	start(m.done)
	return m.run(m.hasFired)
}

// ---------------------------------------------------------------- SCRATCH

func runScratch(m *machine, b *workloads.Benchmark, cfg Config, res *Result) error {
	dma := scratchpad.NewDMA(m.fab, dmaAgent, cfg.DMAOutstanding, cfg.DMAGap, m.st)
	m.dma = dma
	axcs := accelFor(m, b)
	pads := newPads(m, cfg, axcs)
	live := newLiveSet(b)
	return runPhases(m, b, cfg, res, phaseHooks{
		exec: func(_ int, inv *trace.Invocation) (uint64, error) {
			return runScratchWindows(m, cfg, axcs[inv.AXC], pads[inv.AXC], dma, inv, live)
		},
		after: func(inv *trace.Invocation, _ PhaseResult) { live.add(inv) },
	})
}

// newPads builds a scratchpad for every accelerator in axcs, indexed like
// it, and wires the run's observer and mutations into each.
func newPads(m *machine, cfg Config, axcs []*accel.Accelerator) []*scratchpad.Scratchpad {
	spadCfg := scratchpad.Config{SizeBytes: 4 << 10, AccessLat: 1,
		AccessPJ: m.model.ScratchSmall}
	if cfg.Large {
		spadCfg = scratchpad.Config{SizeBytes: 8 << 10, AccessLat: 1,
			AccessPJ: m.model.ScratchLarge}
	}
	pads := make([]*scratchpad.Scratchpad, len(axcs))
	for axc, ax := range axcs {
		if ax == nil {
			continue
		}
		pads[axc] = scratchpad.New(m.eng, fmt.Sprintf("spad%d", axc), spadCfg, m.mt, m.st)
		pads[axc].SetObserver(cfg.Observer)
		if cfg.PadMutations != nil {
			pads[axc].SetMutations(cfg.PadMutations)
		}
	}
	return pads
}

// liveSet tracks lines holding earlier-produced data: the scratchpad oracle
// must DMA-in a stored line when the store only partially overwrites it.
type liveSet map[mem.VAddr]bool

// newLiveSet starts with the program's preloaded inputs live.
func newLiveSet(b *workloads.Benchmark) liveSet {
	live := make(liveSet)
	for _, va := range b.InputLines {
		live[va.LineAddr()] = true
	}
	return live
}

// add marks every line a completed phase wrote as live.
func (l liveSet) add(inv *trace.Invocation) {
	_, w := inv.Lines()
	for la := range w {
		l[la] = true
	}
}

// runScratchWindows executes one invocation through a scratchpad in
// oracle-windowed style — DMA-in the window's read set, run the window's
// iterations, DMA-out the dirty lines — and returns the cycles serialized
// behind DMA. Shared by SCRATCH and by ADAPTIVE's scratchpad placement.
func runScratchWindows(m *machine, cfg Config, ax *accel.Accelerator,
	pad *scratchpad.Scratchpad, dma *scratchpad.DMA, inv *trace.Invocation,
	live liveSet) (uint64, error) {
	windows := scratchpad.Windows(inv, pad.CapacityLines(), live)
	var dmaCycles uint64
	for _, w := range windows {
		// DMA-in: push the window's read set into the scratchpad. Nothing
		// else is in flight at a window boundary, so the window waits for
		// the engine to drain.
		t0 := m.eng.Now()
		for _, va := range w.ReadSet {
			dma.ReadLine(m.translate(va), pad, uint64(va))
		}
		if err := m.run(dma.Idle); err != nil {
			return dmaCycles, fmt.Errorf("%s window DMA-in: %w", inv.Function, err)
		}
		dmaCycles += m.eng.Now() - t0

		// Execute the window.
		m.sub = trace.Invocation{
			Function:   inv.Function,
			AXC:        inv.AXC,
			Iterations: inv.Iterations[w.Start:w.End],
		}
		if err := m.await(func(done func(uint64)) { ax.Start(&m.sub, pad, done) }); err != nil {
			return dmaCycles, fmt.Errorf("%s window exec: %w", inv.Function, err)
		}

		// DMA-out: drain dirty lines back to the LLC.
		t0 = m.eng.Now()
		m.dirty = pad.DirtyLines(m.dirty[:0])
		for _, dl := range m.dirty {
			dma.WriteLine(m.translate(dl.Addr), dl.Ver, dl.Delta, nil, 0)
		}
		if err := m.run(dma.Idle); err != nil {
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
	p.eng.Schedule(walk, func(uint64) { p.issue(kind, pa, done) })
	return true
}

// issue hands a translated access to the L1X after a TLB walk, retrying
// every 2 cycles while its MSHRs are full. The access already paid for its
// switch crossing and translation, so a retry repeats neither.
func (p *sharedPort) issue(kind mem.AccessKind, pa mem.PAddr, done func(uint64)) {
	if !p.client.Access(kind, pa, done) {
		p.eng.Schedule(2, func(uint64) { p.issue(kind, pa, done) })
	}
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
	m.shared = port
	client.SetObserver(cfg.Observer)
	axcs := accelFor(m, b)

	err := runPhases(m, b, cfg, res, phaseHooks{
		exec: func(_ int, inv *trace.Invocation) (uint64, error) {
			err := m.await(func(done func(uint64)) { axcs[inv.AXC].Start(inv, port, done) })
			if err != nil {
				return 0, fmt.Errorf("%s: %w", inv.Function, err)
			}
			return 0, nil
		},
	})
	if err != nil {
		return err
	}
	// Flush the tile cache so outputs land in the LLC.
	client.FlushAll()
	return m.run(func() bool { return client.Outstanding() == 0 })
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
	for t := range tiles {
		tiles[t] = newTile(m, cfg, t, perTile[t])
	}
	axcs := accelFor(m, b)

	err := runPhases(m, b, cfg, res, phaseHooks{
		exec: func(i int, inv *trace.Invocation) (uint64, error) {
			tile := tiles[tileOf(inv.AXC)]
			l0 := tile.L0Xs[localOf(inv.AXC)]

			// HYDRA: arm the task deadline. Fills requested after it passes
			// bypass L1X allocation (the deadline term of the filter).
			if m.kind == Hydra && cfg.DeadlineCycles > 0 {
				tile.L1X.SetDeadline(sim.SatAdd(m.eng.Now(), cfg.DeadlineCycles))
			}

			// FUSION-Dx: install the trace-derived forwarding table for this
			// producer phase (Section 3.2). Forwarding links exist only within
			// a tile; cross-tile consumers fall back to the L1X writeback.
			l0.ClearForwards()
			if m.kind == FusionDx {
				if f, ok := b.Forwards[i]; ok && tileOf(f.Consumer) == tileOf(inv.AXC) {
					for _, la := range f.Lines {
						l0.MarkForward(la, acc.AXCID(localOf(f.Consumer)))
					}
				}
			}
			return 0, runL0X(m, cfg, axcs[inv.AXC], l0, inv)
		},
	})
	if err != nil {
		return err
	}
	return drainTiles(m, b, cfg, tiles)
}

// newTile builds tile t with nAXCs L0X slots and wires the run's observer,
// mutations, paranoid checker and watchdog dump into it. Tiles
// after the first get their own stat prefix and host routes.
func newTile(m *machine, cfg Config, t, nAXCs int) *acc.Tile {
	var tcfg acc.TileConfig
	if cfg.Large {
		tcfg = acc.LargeTileConfig(nAXCs, m.model)
	} else {
		tcfg = acc.SmallTileConfig(nAXCs, m.model)
	}
	tcfg.Agent = tileAgent + mesi.AgentID(t)
	tcfg.PID = m.pid
	tcfg.EnableDx = m.kind == FusionDx
	tcfg.L0X.WriteThrough = cfg.WriteThrough
	tcfg.Injector = m.inj
	if t > 0 {
		tcfg.StatPrefix = fmt.Sprintf("t%d.", t)
		m.addTileRoutes(tcfg.Agent, fmt.Sprintf("hostlink.tile%d", t))
	}
	tile := acc.NewTile(m.eng, m.fab, m.pt, tcfg, m.model, m.mt, m.st)
	m.tiles = append(m.tiles, tile)
	if m.kind == Hydra {
		tile.L1X.EnableBypassFilter(hydraBypassThreshold, m.model.PolicyCheck)
	}
	tile.SetObserver(cfg.Observer)
	if cfg.AccMutations != nil {
		tile.SetMutations(cfg.AccMutations)
	}
	if m.paranoid != nil {
		m.paranoid.tiles = append(m.paranoid.tiles, tile)
	}
	if m.wd != nil {
		m.wd.AddDump(fmt.Sprintf("tile%d", t), tile.DumpState)
	}
	return tile
}

// runL0X runs inv on ax through its L0X under the function's lease, then
// self-evicts the L0X at invocation end, draining its dirty lines (and
// triggering any forwards). Shared by the FUSION family and by ADAPTIVE's
// L0X placement.
func runL0X(m *machine, cfg Config, ax *accel.Accelerator, l0 *acc.L0X, inv *trace.Invocation) error {
	l0.SetLeaseTime(scaleLease(inv.LeaseTime, cfg.LeaseScale))
	if err := m.await(func(done func(uint64)) { ax.Start(inv, l0, done) }); err != nil {
		return fmt.Errorf("%s: %w", inv.Function, err)
	}
	l0.Drain()
	return nil
}

// drainTiles empties the tiles at the end of a run: self-evict every L0X,
// let every lease lapse, then flush the L1Xs so the LLC holds every output.
func drainTiles(m *machine, b *workloads.Benchmark, cfg Config, tiles []*acc.Tile) error {
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
	if err := m.run(outstanding); err != nil {
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
	idleUntil := sim.SatAdd(m.eng.Now(), sim.SatAdd(maxLease, 64))
	err := m.runUntil(idleUntil, func() bool {
		// This wait is intentional (leases must lapse before FlushAll), so
		// keep the watchdog fed while nothing retires.
		m.eng.Progress()
		return m.eng.Now() >= idleUntil
	})
	if err != nil {
		return err
	}
	for _, tile := range tiles {
		tile.L1X.FlushAll()
	}
	return m.run(outstanding)
}

// invariantChecker is the paranoid-mode ticker: it sweeps the ACC protocol
// invariants of every tile and the host directory's MESI invariants on a
// fixed cadence and latches the first violation. Transient (in-flight)
// states are skipped by both checkers, so mid-transaction disagreement
// never false-positives.
//
// It deliberately never sleeps: a paranoid run keeps the engine stepping
// every cycle so the sweep cadence is never skipped.
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
