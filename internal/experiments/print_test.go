package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.json.sha256 from the current simulator")

const (
	// artifactsGolden is the SHA-256 of Print(w, "all"), the fusionbench
	// text output; the benchmark module checks the same file.
	artifactsGolden = "../../bench/golden/artifacts.sha256"
	// jsonGolden is the SHA-256 of PrintJSON(w, "all").
	jsonGolden = "testdata/all.json.sha256"
)

// checkDigest compares the SHA-256 of out with the hex digest in file.
func checkDigest(t *testing.T, file, out string) {
	t.Helper()
	sum := sha256.Sum256([]byte(out))
	got := hex.EncodeToString(sum[:])
	want, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("artifact bytes changed: SHA-256 %s, %s has %s", got, file, w)
	}
}

// Every printer must produce its header and at least one row per benchmark,
// and "all" must chain them without error and reproduce the committed
// bytes. Uses the shared memoized runner at the default worker count.
func TestPrintAllExperiments(t *testing.T) {
	var sb strings.Builder
	if err := sharedRunner.Print(&sb, "all"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	checkDigest(t, artifactsGolden, out)
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

// TestPrintJSONAllGolden pins the bytes of every artifact's JSON rows.
// After a deliberate result change, regenerate with
//
//	go test ./internal/experiments -run TestPrintJSONAllGolden -update
func TestPrintJSONAllGolden(t *testing.T) {
	var sb strings.Builder
	if err := sharedRunner.PrintJSON(&sb, "all"); err != nil {
		t.Fatal(err)
	}
	if *update {
		sum := sha256.Sum256([]byte(sb.String()))
		if err := os.WriteFile(jsonGolden, []byte(hex.EncodeToString(sum[:])+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkDigest(t, jsonGolden, sb.String())
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
