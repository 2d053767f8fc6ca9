package systems

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"fusion/internal/faults"
	"fusion/internal/workloads"
)

// TestSpecNormalizationCollapsesEquivalents: a zero-knob spec and one with
// the baseline defaults spelled out must produce identical keys and hashes
// — otherwise the content-addressed result cache would store the same run
// twice under two names.
func TestSpecNormalizationCollapsesEquivalents(t *testing.T) {
	zero := Spec{Bench: "adpcm", System: "fusion"}
	explicit := SpecOf("adpcm", DefaultConfig(Fusion))
	if zero.Key() != explicit.Key() {
		t.Fatalf("keys differ:\n%s\n%s", zero.Key(), explicit.Key())
	}
	if zero.Hash() != explicit.Hash() {
		t.Fatalf("hashes differ: %s vs %s", zero.Hash(), explicit.Hash())
	}
	// Case and spelling of the system name normalize too.
	for _, alias := range []string{"FUSION", "Fusion", " fusion "} {
		s := Spec{Bench: "adpcm", System: alias}
		if s.Key() != zero.Key() {
			t.Errorf("system alias %q produced a different key", alias)
		}
	}
	if k := (Spec{Bench: "adpcm", System: "dx"}).Normalized().System; k != "fusion-dx" {
		t.Fatalf("dx alias normalized to %q, want fusion-dx", k)
	}
}

// TestSpecKeySeparatesDistinctRuns: every serializable knob must reach the
// key — a knob that doesn't would alias two different runs in the cache.
func TestSpecKeySeparatesDistinctRuns(t *testing.T) {
	base := Spec{Bench: "adpcm", System: "fusion"}
	variants := []Spec{
		{Bench: "fft", System: "fusion"},
		{Bench: "adpcm", System: "shared"},
		{Bench: "adpcm", System: "fusion", Large: true},
		{Bench: "adpcm", System: "fusion", WriteThrough: true},
		{Bench: "adpcm", System: "fusion", MaxCycles: 12345},
		{Bench: "adpcm", System: "fusion", Tiles: 2},
		{Bench: "adpcm", System: "fusion", LeaseScale: 0.5},
		{Bench: "adpcm", System: "fusion", DMAOutstanding: 4},
		{Bench: "adpcm", System: "fusion", DMAGap: 4},
		{Bench: "adpcm", System: "fusion", WatchdogCycles: 99},
		{Bench: "adpcm", System: "fusion", Policy: "learned"},
		{Bench: "adpcm", System: "fusion", DecisionWindow: 8},
		{Bench: "adpcm", System: "fusion", DeadlineCycles: 5000},
		{Bench: "adpcm", System: "fusion",
			Faults: func() *faults.Plan { p := faults.RandomPlan(7); return &p }()},
	}
	seen := map[string]string{base.Key(): "base"}
	for i, v := range variants {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("variant %d aliases %s under key %s", i, prev, k)
		}
		seen[k] = v.Label()
	}
}

// TestSpecConfigRoundTrip: Spec -> Config -> SpecOf must be a fixed point,
// including a fault plan, whatever hooks the Config adds, and a disabled
// fault plan must normalize away.
func TestSpecConfigRoundTrip(t *testing.T) {
	plan := faults.RandomPlan(3)
	s := Spec{Bench: "fft", System: "fusion-dx", Large: true, Tiles: 2,
		LeaseScale: 2.0, WatchdogCycles: 1_000_000, Faults: &plan}
	cfg := Config{Spec: s, Paranoid: true, PolicyMutations: &PolicyMutations{}}
	back := SpecOf("fft", cfg)
	if back.Key() != s.Key() {
		t.Fatalf("round trip changed the key:\n%s\n%s", s.Key(), back.Key())
	}
	// The normalized fault plan must be a copy, not an alias.
	if back.Faults == s.Faults || s.Normalized().Faults == s.Faults {
		t.Fatal("normalization aliased the fault plan pointer")
	}

	disabled := Spec{Bench: "fft", System: "fusion", Faults: &faults.Plan{Seed: 9}}
	if disabled.Normalized().Faults != nil {
		t.Fatal("disabled fault plan survived normalization")
	}
}

// TestSpecValidate rejects unknown systems and benchmarks with errors that
// name the valid sets.
func TestSpecValidate(t *testing.T) {
	if err := (Spec{Bench: "adpcm", System: "fusion"}).Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	err := (Spec{Bench: "adpcm", System: "quantum"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "quantum") {
		t.Fatalf("unknown system not rejected usefully: %v", err)
	}
	err = (Spec{Bench: "nope", System: "fusion"}).Validate()
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("unknown benchmark not rejected usefully: %v", err)
	}
	b := workloads.Get("adpcm")
	for _, cfg := range []Config{{Spec: Spec{System: "quantum"}}, DefaultConfig(Kind(99))} {
		if _, err := Run(b, cfg); err == nil || !strings.Contains(err.Error(), "unknown system") {
			t.Fatalf("Run of system %q: %v, want an unknown-system error", cfg.System, err)
		}
	}
}

// TestSpecValidateLeaseScale: a negative, NaN or infinite lease scale is
// rejected (a negative one would run as 1.0 under a key of its own); zero,
// the default, and any finite positive scale whose leases fit the cycle
// budget pass. TestSpecValidateBounds covers the budget and link bounds.
func TestSpecValidateLeaseScale(t *testing.T) {
	for _, sc := range []float64{-1, -0.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := (Spec{Bench: "adpcm", System: "fusion", LeaseScale: sc}).Validate()
		if err == nil || !strings.Contains(err.Error(), "lease_scale") {
			t.Errorf("lease scale %v not rejected usefully: %v", sc, err)
		}
	}
	for _, sc := range []float64{0, 0.25, 1, 4, 1e6} {
		s := Spec{Bench: "adpcm", System: "fusion", LeaseScale: sc, MaxCycles: 2_000_000_000}
		if err := s.Validate(); err != nil {
			t.Errorf("lease scale %v rejected: %v", sc, err)
		}
	}
}

// TestSpecValidateDecisionWindow: a negative decision window is rejected
// (it would run as the default window under a key of its own); zero, the
// default, and any positive window pass.
func TestSpecValidateDecisionWindow(t *testing.T) {
	for _, w := range []int{-1, -64} {
		err := (Spec{Bench: "fft", System: "adaptive", DecisionWindow: w}).Validate()
		if err == nil || !strings.Contains(err.Error(), "decision_window") {
			t.Errorf("decision window %d not rejected usefully: %v", w, err)
		}
	}
	for _, w := range []int{0, 1, 64, 1 << 20} {
		if err := (Spec{Bench: "fft", System: "adaptive", DecisionWindow: w}).Validate(); err != nil {
			t.Errorf("decision window %d rejected: %v", w, err)
		}
	}
}

// TestSpecJSONRoundTrip: a spec survives serialization — the property the
// HTTP API and the on-disk cache rest on.
func TestSpecJSONRoundTrip(t *testing.T) {
	plan := faults.RandomPlan(11)
	s := (Spec{Bench: "disp", System: "scratch", DMAOutstanding: 2, DMAGap: 4,
		Faults: &plan}).Normalized()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Spec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key() != s.Key() {
		t.Fatalf("JSON round trip changed the key:\n%s\n%s", s.Key(), back.Key())
	}
}

// TestSpecValidateBounds: Validate sees each knob as sent and rejects the
// values the model cannot run, naming the JSON field; the in-range values
// around each bound pass, on systems that ignore the knob too. fft has 6
// accelerators and leases of 200 to 700 cycles; adpcm's are 1,400.
func TestSpecValidateBounds(t *testing.T) {
	const maxU = math.MaxUint64
	for _, c := range []struct {
		spec Spec
		want string // the field the error names; "" accepts
	}{
		{Spec{Tiles: -3}, "tiles -3"},
		{Spec{Tiles: 0}, ""},
		{Spec{Tiles: 6}, ""},
		{Spec{Tiles: 7}, "tiles 7"},
		{Spec{Tiles: 40}, "tiles 40"},
		{Spec{Tiles: 40, System: "scratch"}, "tiles 40"},
		{Spec{DMAOutstanding: -1}, "dma_outstanding -1"},
		{Spec{DMAOutstanding: 8, System: "fusion"}, ""},
		// 0.01 leaves step3's 200-cycle lease at 2 cycles, the L0X-L1X
		// link latency: every grant arrives lapsed.
		{Spec{LeaseScale: 0.01}, "lease_scale 0.01"},
		{Spec{LeaseScale: 0.01, System: "scratch"}, "lease_scale 0.01"},
		{Spec{LeaseScale: 0.02}, ""},
		// A lease longer than the budget cannot lapse inside it.
		{Spec{LeaseScale: 1000, MaxCycles: 2_000_000}, ""},
		{Spec{LeaseScale: 3000, MaxCycles: 2_000_000}, "lease_scale 3000"},
		{Spec{LeaseScale: 1e5}, ""},
		{Spec{LeaseScale: 1e6}, "lease_scale 1e+06"},
		{Spec{LeaseScale: 1e300, MaxCycles: maxU}, "lease_scale 1e+300"},
		{Spec{Bench: "adpcm", MaxCycles: 1400}, ""},
		{Spec{Bench: "adpcm", MaxCycles: 1000}, "lease_scale 0"},
		{Spec{DeadlineCycles: 200_000_000}, ""},
		{Spec{DeadlineCycles: 1 << 40}, "deadline_cycles 1099511627776"},
		{Spec{DeadlineCycles: 5000, MaxCycles: 4999}, "deadline_cycles 5000"},
		{Spec{DeadlineCycles: maxU, MaxCycles: maxU}, ""},
		{Spec{DeadlineCycles: 5000, System: "scratch"}, ""},
	} {
		s := c.spec
		if s.Bench == "" {
			s.Bench = "fft"
		}
		if s.System == "" {
			s.System = "hydra"
		}
		err := s.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%+v rejected: %v", s, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%+v: error %v, want one naming %q", s, err, c.want)
		case err == nil && s.Normalized().Validate() != nil:
			t.Errorf("%+v: accepted, but its normalized form is not", s)
		}
	}
}

// TestSpecValidateAcceptsSweepKnobs: every knob combination fusiond's
// benchmark sends passes on every benchmark and system.
func TestSpecValidateAcceptsSweepKnobs(t *testing.T) {
	for _, bench := range workloads.Names() {
		for _, sys := range KindNames() {
			for _, tiles := range []int{1, 2} {
				for _, lease := range []float64{0.5, 1, 2} {
					s := Spec{Bench: bench, System: sys, Large: true, WriteThrough: true,
						Tiles: tiles, LeaseScale: lease}
					if err := s.Validate(); err != nil {
						t.Errorf("%+v rejected: %v", s, err)
					}
				}
			}
		}
	}
}
