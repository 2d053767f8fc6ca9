package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fusion/internal/systems"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// smokeWorkloads are the four workloads cut to one pass of two cells (one
// cheap artifact for artifacts, two cold specs for fusiond-mixed).
func smokeWorkloads() []workload {
	one := func(kind systems.Kind) cellsSpec {
		return cellsSpec{kinds: []systems.Kind{kind}, large: []bool{false}, benches: []string{"fft"}, random: 1}
	}
	ws := []workload{
		artifactsOf("ablate-tiles"),
		cellsWorkload("fusion-cells", one(systems.Fusion)),
		cellsWorkload("scratch-cells", one(systems.Scratch)),
		fusiondOf(fusiondSpec{benches: []string{"fft"}, systems: []string{"fusion", "scratch"}, roundRequests: 8}),
	}
	for i := range ws {
		ws[i].minPasses = 1
	}
	return ws
}

// TestSmokeEmitsBenchmarkMetrics runs every workload briefly, untraced and
// traced, and requires exactly the metrics BENCHMARK.json declares, each
// with its declared unit, and a correct result.
func TestSmokeEmitsBenchmarkMetrics(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, fusionperf has %v", names, workloadNames())
	}
	declared := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		declared[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		declared[true][m.Name] = m.Unit
	}
	for _, w := range smokeWorkloads() {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			t.Run(w.name+map[bool]string{false: "", true: "/trace"}[traced], func(t *testing.T) {
				res, err := run(w, options{seed: 1, seconds: 1e-3, trace: traced, benchtime: "1x", uncalibrated: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("incorrect run: %d of %d failed: %s", res.Failed, res.Attempted,
						strings.Join(res.Failures, "; "))
				}
				want := declared[traced]
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %q", name, m, ok, unit)
					}
				}
				for name := range res.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s is not declared in BENCHMARK.json", name)
					}
				}
			})
		}
	}
}

// TestLastLine pins the result line's shape: exactly correct, attempted,
// failed and metrics, each metric a value and a unit.
func TestLastLine(t *testing.T) {
	res := &runResult{Workload: "artifacts", Correct: true, Attempted: 3,
		Metrics: map[string]metric{"pass_s": {Value: 1.5, Unit: "s", Better: "lower", N: 3}}}
	var b strings.Builder
	if err := printLastLine(&b, []*runResult{res}); err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"pass_s":{"value":1.5,"unit":"s"}}}` + "\n"
	if b.String() != want {
		t.Errorf("last line %q, want %q", b.String(), want)
	}
}
