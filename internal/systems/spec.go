package systems

// Spec is the serializable, self-describing run configuration: everything
// that determines a simulation's result, and nothing that does not. It
// replaces ad-hoc flag plumbing as the canonical way to name a run — the
// experiment memo cache, the fusiond result cache, and the CLIs all key on
// it. Because the simulator is deterministic, a Spec's canonical hash
// permanently identifies its result: compute once, serve forever.
//
// Knobs that never change measured results (observers, paranoia
// sweeps, test-only mutations) are deliberately not part of a Spec; knobs
// that change whether a run completes (cycle budget, watchdog window, fault
// plan) are.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"fusion/internal/faults"
	"fusion/internal/workloads"
)

// Spec names one (benchmark, system, knobs) simulation. The zero-valued
// knobs mean "the paper's baseline" (see Config.normalize); Normalized
// makes the defaults explicit so equivalent specs collapse to one key.
type Spec struct {
	Bench  string `json:"bench"`
	System string `json:"system"`

	Large          bool         `json:"large,omitempty"`
	WriteThrough   bool         `json:"write_through,omitempty"`
	MaxCycles      uint64       `json:"max_cycles,omitempty"`
	Tiles          int          `json:"tiles,omitempty"`
	LeaseScale     float64      `json:"lease_scale,omitempty"`
	DMAOutstanding int          `json:"dma_outstanding,omitempty"`
	DMAGap         uint64       `json:"dma_gap,omitempty"`
	WatchdogCycles uint64       `json:"watchdog_cycles,omitempty"`
	Policy         string       `json:"policy,omitempty"`
	DecisionWindow int          `json:"decision_window,omitempty"`
	DeadlineCycles uint64       `json:"deadline_cycles,omitempty"`
	Faults         *faults.Plan `json:"faults,omitempty"`
}

// ParseKind resolves a system name ("scratch", "shared", "fusion",
// "fusion-dx", "adaptive", "hydra"; case-insensitive, "fusiondx"/"dx"
// accepted) to its Kind.
func ParseKind(name string) (Kind, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "scratch":
		return Scratch, true
	case "shared":
		return Shared, true
	case "fusion":
		return Fusion, true
	case "fusion-dx", "fusiondx", "dx":
		return FusionDx, true
	case "adaptive":
		return Adaptive, true
	case "hydra":
		return Hydra, true
	}
	return 0, false
}

// SpecOf captures the serializable portion of a Config as a normalized
// Spec. Non-serializable knobs (Observer, Paranoid, mutations) are
// dropped: they never change measured results.
func SpecOf(bench string, cfg Config) Spec {
	cfg = cfg.normalize()
	s := Spec{
		Bench:          bench,
		System:         strings.ToLower(cfg.Kind.String()),
		Large:          cfg.Large,
		WriteThrough:   cfg.WriteThrough,
		MaxCycles:      cfg.MaxCycles,
		Tiles:          cfg.Tiles,
		LeaseScale:     cfg.LeaseScale,
		DMAOutstanding: cfg.DMAOutstanding,
		DMAGap:         cfg.DMAGap,
		WatchdogCycles: cfg.WatchdogCycles,
		Policy:         cfg.Policy,
		DecisionWindow: cfg.DecisionWindow,
		DeadlineCycles: cfg.DeadlineCycles,
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		plan := *cfg.Faults
		s.Faults = &plan
	}
	return s
}

// Normalized fills every defaulted knob with its explicit baseline value,
// by Config.normalize's rules, and canonicalizes the system name, so any
// two specs describing the same run serialize identically. A disabled
// fault plan normalizes to nil.
func (s Spec) Normalized() Spec {
	kind, ok := ParseKind(s.System)
	out := SpecOf(strings.ToLower(strings.TrimSpace(s.Bench)), s.config(kind))
	if !ok {
		out.System = strings.ToLower(strings.TrimSpace(s.System))
	}
	// The adaptive/hydra knobs stay implicit when defaulted ("" rather
	// than "heuristic", 0 rather than DefaultDecisionWindow): their
	// defaults are applied at the use site, so pre-knob spec hashes of the
	// other systems remain valid cache keys.
	out.Policy = strings.ToLower(strings.TrimSpace(out.Policy))
	return out
}

// Validate reports whether the spec names a known benchmark, system, and
// policy, with a finite, non-negative lease scale (zero is the default,
// 1.0) and a non-negative decision window (zero is the default). A
// negative scale or window would run as the default under a key of its
// own.
func (s Spec) Validate() error {
	if _, ok := ParseKind(s.System); !ok {
		return fmt.Errorf("spec: unknown system %q (valid: %s)",
			s.System, strings.Join(KindNames(), ", "))
	}
	if s.LeaseScale < 0 || math.IsNaN(s.LeaseScale) || math.IsInf(s.LeaseScale, 0) {
		return fmt.Errorf("spec: lease scale %v is not a finite, non-negative factor", s.LeaseScale)
	}
	if s.DecisionWindow < 0 {
		return fmt.Errorf("spec: decision window %d is negative", s.DecisionWindow)
	}
	switch strings.ToLower(strings.TrimSpace(s.Policy)) {
	case "", "heuristic", "learned":
	default:
		return fmt.Errorf("spec: unknown adaptive policy %q (valid: heuristic, learned)", s.Policy)
	}
	bench := strings.ToLower(strings.TrimSpace(s.Bench))
	for _, n := range workloads.Names() {
		if n == bench {
			return nil
		}
	}
	return fmt.Errorf("spec: unknown benchmark %q (valid: %s)",
		s.Bench, strings.Join(workloads.Names(), ", "))
}

// Config converts the spec to a runnable Config. It fails on an unknown
// system; benchmark existence is checked by Validate (or by the caller's
// workload lookup).
func (s Spec) Config() (Config, error) {
	kind, ok := ParseKind(s.System)
	if !ok {
		return Config{}, fmt.Errorf("spec: unknown system %q", s.System)
	}
	// Normalized holds its own copy of the fault plan for the Config.
	return s.Normalized().config(kind), nil
}

// config carries the spec's knobs, as they stand, into a Config of kind k
// that shares the spec's fault plan.
func (s Spec) config(k Kind) Config {
	return Config{
		Kind:           k,
		Large:          s.Large,
		WriteThrough:   s.WriteThrough,
		MaxCycles:      s.MaxCycles,
		Tiles:          s.Tiles,
		LeaseScale:     s.LeaseScale,
		DMAOutstanding: s.DMAOutstanding,
		DMAGap:         s.DMAGap,
		WatchdogCycles: s.WatchdogCycles,
		Policy:         s.Policy,
		DecisionWindow: s.DecisionWindow,
		DeadlineCycles: s.DeadlineCycles,
		Faults:         s.Faults,
	}
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
