package systems

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"fusion/internal/faults"
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
// including a fault plan, and a disabled fault plan must normalize away.
func TestSpecConfigRoundTrip(t *testing.T) {
	plan := faults.RandomPlan(3)
	s := Spec{Bench: "fft", System: "fusion-dx", Large: true, Tiles: 2,
		LeaseScale: 2.0, WatchdogCycles: 1_000_000, Faults: &plan}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != FusionDx || !cfg.Large || cfg.Tiles != 2 {
		t.Fatalf("config did not carry the knobs: %+v", cfg)
	}
	back := SpecOf("fft", cfg)
	if back.Key() != s.Key() {
		t.Fatalf("round trip changed the key:\n%s\n%s", s.Key(), back.Key())
	}
	// The round-tripped fault plan must be a copy, not an alias.
	if back.Faults == s.Faults || cfg.Faults == s.Faults {
		t.Fatal("spec/config round trip aliased the fault plan pointer")
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
	if _, err := (Spec{Bench: "adpcm", System: "quantum"}).Config(); err == nil {
		t.Fatal("Config() accepted an unknown system")
	}
}

// TestSpecValidateLeaseScale: a negative, NaN or infinite lease scale is
// rejected (a negative one would run as 1.0 under a key of its own); zero,
// the default, and any finite positive scale pass.
func TestSpecValidateLeaseScale(t *testing.T) {
	for _, sc := range []float64{-1, -0.25, math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := (Spec{Bench: "adpcm", System: "fusion", LeaseScale: sc}).Validate()
		if err == nil || !strings.Contains(err.Error(), "lease scale") {
			t.Errorf("lease scale %v not rejected usefully: %v", sc, err)
		}
	}
	for _, sc := range []float64{0, 0.25, 1, 4, 1e6} {
		if err := (Spec{Bench: "adpcm", System: "fusion", LeaseScale: sc}).Validate(); err != nil {
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
		if err == nil || !strings.Contains(err.Error(), "decision window") {
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
