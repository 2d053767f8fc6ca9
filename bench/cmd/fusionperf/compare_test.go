package main

import (
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestClassify(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{70, 130, 90, 110, 80, 120, 100, 140, 60, 100}
	for _, c := range []struct {
		name     string
		old, new []float64
		better   string
		bound    float64
		hasBound bool
		want     string
	}{
		{"faster", steady, scaled(steady, 0.8), "lower", 0.05, true, "improved"},
		{"slower beyond the bound", steady, scaled(steady, 1.2), "lower", 0.05, true, "regressed"},
		{"slower within the bound", steady, scaled(steady, 1.02), "lower", 0.05, true, "unchanged"},
		{"spread wider than the bound", noisy, scaled(noisy, 1.01), "lower", 0.05, true, "unresolved"},
		{"higher is better", steady, scaled(steady, 0.8), "higher", 0.05, true, "regressed"},
		{"no bound, consistently slower", steady, scaled(steady, 1.2), "lower", 0, false, "regressed"},
		{"no bound, within noise", steady, scaled(steady, 1.001), "lower", 0, false, "unchanged"},
	} {
		if got := classify(c.old, c.new, c.better, c.bound, c.hasBound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSameCountsComparesSeedBySeed(t *testing.T) {
	old := &series{values: []float64{10, 20, 10}, seeds: []int64{1, 2, 1}}
	for _, c := range []struct {
		values []float64
		seeds  []int64
		want   string
	}{
		{[]float64{20, 10}, []int64{2, 1}, "unchanged"},
		{[]float64{10, 21}, []int64{1, 2}, "regressed"},
		{[]float64{99}, []int64{3}, "unresolved"},
	} {
		if got := sameCounts(old, &series{values: c.values, seeds: c.seeds}); got != c.want {
			t.Errorf("sameCounts(%v at seeds %v) = %s, want %s", c.values, c.seeds, got, c.want)
		}
	}
}

func TestCompareRows(t *testing.T) {
	run := func(seed int64, pass, cycles float64) *runResult {
		return &runResult{Workload: "fusion-cells", Seed: seed,
			Metrics: map[string]metric{"pass_s": {Value: pass, Unit: "s", Better: "lower"}},
			Extra:   map[string]metric{"sim.cycles": {Value: cycles, Unit: "count", Better: "equal"}}}
	}
	oldF := &resultsFile{Sets: []resultSet{{Runs: []*runResult{run(1, 3.0, 100), run(1, 3.1, 100)}}}}
	newF := &resultsFile{Sets: []resultSet{{Runs: []*runResult{run(1, 2.0, 100), run(1, 2.1, 101)}}}}
	var b strings.Builder
	if err := compare(&b, oldF, newF, map[string]float64{"pass_s": 0.05}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"pass_s", "improved", "sim.cycles", "regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output lacks %q:\n%s", want, out)
		}
	}
}
