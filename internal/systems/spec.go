package systems

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"fusion/internal/acc"
	"fusion/internal/energy"
	"fusion/internal/faults"
	"fusion/internal/workloads"
)

// Spec is the serializable run configuration: it names one (benchmark,
// system, knobs) simulation and declares every knob that can change its
// result, including whether it completes (cycle budget, watchdog window,
// fault plan). A Config adds the hooks that never change a result. The
// experiment memo, the fusiond result cache and the CLIs all key on a
// Spec; because the simulator is deterministic, its canonical hash
// permanently identifies its result. Zero knobs mean "the paper's
// baseline": Normalized makes the defaults explicit so equivalent specs
// collapse to one key, and Validate rejects the values the model cannot
// run.
type Spec struct {
	// Bench names the benchmark. Run ignores it: it takes the benchmark
	// itself.
	Bench string `json:"bench"`
	// System names the architecture (see ParseKind).
	System string `json:"system"`

	// Large selects the AXC-Large configuration of Section 5.5 (8 KB
	// L0X/scratchpad, 256 KB L1X).
	Large bool `json:"large,omitempty"`
	// WriteThrough disables L0X write caching (Table 4).
	WriteThrough bool `json:"write_through,omitempty"`
	// MaxCycles bounds the run: a run still going at this cycle fails with
	// a cycle-budget error (a safety net). Zero means 200 M cycles.
	MaxCycles uint64 `json:"max_cycles,omitempty"`

	// --- Extensions and ablation knobs (defaults reproduce the paper) ---

	// Tiles splits the accelerators across multiple FUSION tiles
	// (round-robin by AXC id). The paper collocates all of an
	// application's accelerators on one tile and keeps "no inter-tile
	// communication"; setting Tiles > 1 quantifies why — shared data then
	// ping-pongs through host MESI. Zero means 1.
	Tiles int `json:"tiles,omitempty"`
	// LeaseScale multiplies every function's ACC lease time (Table 3 LT),
	// for lease-sensitivity ablations. Zero means 1.0.
	LeaseScale float64 `json:"lease_scale,omitempty"`
	// DMAOutstanding is the oracle DMA engine's transfer depth (default 1:
	// a serial controller state machine, as modeled in the paper).
	DMAOutstanding int `json:"dma_outstanding,omitempty"`
	// DMAGap is the DMA controller's per-transfer occupancy in cycles.
	// Zero means 20.
	DMAGap uint64 `json:"dma_gap,omitempty"`
	// WatchdogCycles arms a forward-progress watchdog: if no component
	// reports progress (op retirement, MSHR free, link delivery) for this
	// many cycles, the run halts with a diagnostic dump naming the stuck
	// component. Zero disables the watchdog.
	WatchdogCycles uint64 `json:"watchdog_cycles,omitempty"`
	// Policy selects the ADAPTIVE placement policy: "heuristic" (the
	// default, also selected by "") or "learned". Other systems ignore it.
	Policy string `json:"policy,omitempty"`
	// DecisionWindow bounds how many leading iterations of a task the
	// ADAPTIVE profiler folds into its reuse/sharing counters (the
	// decision window of the Cohmeleon-style policy). Zero means
	// DefaultDecisionWindow. Other systems ignore it.
	DecisionWindow int `json:"decision_window,omitempty"`
	// DeadlineCycles arms HYDRA's per-task deadline: each accelerator
	// task's deadline is its start cycle plus this budget, and once the
	// deadline passes the L1X bypasses allocation for the task's fills
	// (deadline-critical streaming). Zero leaves the deadline term of the
	// filter unarmed. Other systems ignore it.
	DeadlineCycles uint64 `json:"deadline_cycles,omitempty"`
	// Faults, when non-nil and enabled, injects the plan's deterministic
	// order-preserving faults (link jitter, link stall windows, DRAM
	// latency spikes) into every interconnect and the memory controller. A
	// correct hierarchy absorbs any plan with degraded cycle counts and an
	// unchanged final memory image.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// leaseFloor is the L0X<->L1X link latency. A lease no longer than it has
// lapsed by the time its grant reaches the L0X, so the L0X can never use
// it and re-requests the line forever.
var leaseFloor = acc.SmallTileConfig(0, energy.Model{}).L0XL1XLatency

// ParseKind resolves a system name ("scratch", "shared", "fusion",
// "fusion-dx", "adaptive", "hydra"; case-insensitive, "fusiondx"/"dx"
// accepted) to its Kind.
func ParseKind(name string) (Kind, bool) {
	name = strings.ToLower(strings.TrimSpace(name))
	if name == "fusiondx" || name == "dx" {
		return FusionDx, true
	}
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// SpecOf captures a Config's spec, for benchmark bench, as a normalized
// Spec. The hooks a Config adds are dropped: they never change measured
// results.
func SpecOf(bench string, cfg Config) Spec {
	s := cfg.Spec
	s.Bench = bench
	return s.Normalized()
}

// Normalized fills every defaulted knob with its explicit baseline value
// and canonicalizes the names, so any two specs describing the same run
// serialize identically. It is the one statement of the defaults. An
// enabled fault plan is copied, and a disabled one normalizes to nil.
func (s Spec) Normalized() Spec {
	s.Bench = strings.ToLower(strings.TrimSpace(s.Bench))
	s.System = strings.ToLower(strings.TrimSpace(s.System))
	if k, ok := ParseKind(s.System); ok {
		s.System = kindNames[k]
	}
	if s.MaxCycles == 0 {
		s.MaxCycles = 200_000_000
	}
	if s.Tiles <= 0 {
		s.Tiles = 1
	}
	if s.LeaseScale == 0 {
		s.LeaseScale = 1.0
	}
	if s.DMAOutstanding <= 0 {
		s.DMAOutstanding = 1
	}
	if s.DMAGap == 0 {
		s.DMAGap = dmaControllerGap
	}
	// The adaptive/hydra knobs stay implicit when defaulted ("" rather
	// than "heuristic", 0 rather than DefaultDecisionWindow): their
	// defaults are applied at the use site, so pre-knob spec hashes of the
	// other systems remain valid cache keys.
	s.Policy = strings.ToLower(strings.TrimSpace(s.Policy))
	if s.Faults != nil && s.Faults.Enabled() {
		plan := *s.Faults
		s.Faults = &plan
	} else {
		s.Faults = nil
	}
	return s
}

// Validate reports whether the spec, as sent, names a run the model can
// represent: known names, and every knob inside its bound (DESIGN.md §4
// lists the rules). Each error names the JSON field, its value and the
// bound. No rule depends on the system.
func (s Spec) Validate() error {
	n := s.Normalized()
	if _, ok := ParseKind(n.System); !ok {
		return fmt.Errorf("spec: unknown system %q (valid: %s)",
			s.System, strings.Join(KindNames(), ", "))
	}
	shape, ok := workloads.ShapeOf(n.Bench)
	if !ok {
		return fmt.Errorf("spec: unknown benchmark %q (valid: %s)",
			s.Bench, strings.Join(workloads.Names(), ", "))
	}
	if _, err := newPolicy(n.Policy); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Tiles < 0 || s.Tiles > shape.AXCs {
		return fmt.Errorf("spec: tiles %d is outside [0, %d], %s's accelerator count",
			s.Tiles, shape.AXCs, n.Bench)
	}
	if s.DMAOutstanding < 0 {
		return fmt.Errorf("spec: dma_outstanding %d is below 0", s.DMAOutstanding)
	}
	if s.DecisionWindow < 0 {
		return fmt.Errorf("spec: decision_window %d is below 0", s.DecisionWindow)
	}
	if s.LeaseScale < 0 || math.IsNaN(s.LeaseScale) || math.IsInf(s.LeaseScale, 0) {
		return fmt.Errorf("spec: lease_scale %v is not a finite, non-negative factor", s.LeaseScale)
	}
	// The float bound keeps scaleLease's conversion in range.
	if long := float64(shape.MaxLease) * n.LeaseScale; long >= math.MaxUint64 ||
		scaleLease(shape.MaxLease, n.LeaseScale) > n.MaxCycles {
		return fmt.Errorf("spec: lease_scale %v stretches %s's longest lease (%d cycles) past max_cycles %d",
			s.LeaseScale, n.Bench, shape.MaxLease, n.MaxCycles)
	}
	if short := scaleLease(shape.MinLease, n.LeaseScale); short <= leaseFloor {
		return fmt.Errorf("spec: lease_scale %v shrinks %s's shortest lease (%d cycles) to %d, not above the %d-cycle L0X-L1X link",
			s.LeaseScale, n.Bench, shape.MinLease, short, leaseFloor)
	}
	if s.DeadlineCycles > n.MaxCycles {
		return fmt.Errorf("spec: deadline_cycles %d exceeds max_cycles %d", s.DeadlineCycles, n.MaxCycles)
	}
	return nil
}

// Key is the canonical serialized form of the spec — the compact JSON of
// its normalized value, with fields in declaration order. Equal keys mean
// equal runs; the experiment memo and the fusiond result cache both key on
// it.
func (s Spec) Key() string {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		// A Spec contains only marshalable fields; this cannot happen.
		return fmt.Sprintf("unmarshalable-spec/%s/%s", s.Bench, s.System)
	}
	return string(b)
}

// Hash is the content address of the spec's result: the hex SHA-256 of Key.
// Determinism makes the mapping permanent, which is what lets fusiond cache
// results on disk indefinitely.
func (s Spec) Hash() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}

// Label is the short human-readable cell name ("bench/system") used in
// error reports and sweep keys.
func (s Spec) Label() string {
	n := s.Normalized()
	return n.Bench + "/" + n.System
}
