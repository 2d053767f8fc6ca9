package experiments

import (
	"encoding/json"
	"strings"
	"testing"
)

// Every printer must produce its header and at least one row per benchmark,
// and "all" must chain them without error. Uses the shared memoized runner.
func TestPrintAllExperiments(t *testing.T) {
	var sb strings.Builder
	if err := sharedRunner.Print(&sb, "all"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 1", "Table 3", "Figure 6a", "Figure 6b", "Figure 6c",
		"Figure 6d", "Table 4", "Table 5", "Figure 7", "Table 6",
		"Ablation: ACC lease length", "Ablation: oracle DMA",
		"Ablation: accelerator placement",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Every benchmark appears in the output.
	for _, b := range []string{"fft", "disp", "track", "adpcm", "susan", "filt", "hist"} {
		if strings.Count(out, b) < 3 {
			t.Errorf("benchmark %s underrepresented in output", b)
		}
	}
}

func TestPrintUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := sharedRunner.Print(&sb, "nope")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The hint must offer every artifact Print accepts.
	offered := map[string]bool{}
	for _, f := range strings.FieldsFunc(err.Error(), func(r rune) bool {
		return strings.ContainsRune(" ,():", r)
	}) {
		offered[f] = true
	}
	for _, e := range sharedRunner.All() {
		if !offered[e.Name] {
			t.Errorf("error %q does not offer %q", err, e.Name)
		}
	}
}

func TestPrintSingleExperiment(t *testing.T) {
	var sb strings.Builder
	if err := sharedRunner.Print(&sb, "fig6d"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "WSet(kB)") {
		t.Fatal("fig6d output malformed")
	}
}

func TestJSONOutputsParse(t *testing.T) {
	for _, e := range sharedRunner.All() {
		var sb strings.Builder
		if err := sharedRunner.PrintJSON(&sb, e.Name); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var v any
		if err := json.Unmarshal([]byte(sb.String()), &v); err != nil {
			t.Fatalf("%s: invalid JSON: %v", e.Name, err)
		}
	}
	// The "all" object contains every experiment key.
	var sb strings.Builder
	if err := sharedRunner.PrintJSON(&sb, "all"); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatal(err)
	}
	for _, e := range sharedRunner.All() {
		if _, ok := m[e.Name]; !ok {
			t.Errorf("all-JSON missing %q", e.Name)
		}
	}
}

func TestDataUnknown(t *testing.T) {
	if _, err := sharedRunner.Data("nope"); err == nil {
		t.Fatal("unknown experiment accepted by Data")
	}
}

func TestChartsRender(t *testing.T) {
	for _, name := range []string{"chart6a", "chart6b"} {
		var sb strings.Builder
		if err := sharedRunner.Print(&sb, name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := sb.String()
		if !strings.Contains(out, "SCRATCH") || !strings.Contains(out, "FUSION") {
			t.Fatalf("%s missing systems:\n%s", name, out[:200])
		}
		if strings.Count(out, "|") < 21 {
			t.Fatalf("%s: expected 21 bars", name)
		}
	}
}
