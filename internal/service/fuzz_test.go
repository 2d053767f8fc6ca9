package service

// Native fuzzing of fusiond's request boundary: a sweep body is decoded,
// expanded, validated and normalized exactly as handleSweep does it
// (decodeSweep). No body may panic the decoder, and every cell it accepts
// must have a stable identity: its normalization is idempotent and its
// content hash, the result-cache key, survives a JSON round trip. Every
// accepted cell must also run: up to two cells per body with a small cycle
// budget go through BuildCell, and each must either complete inside its
// budget with a verified memory image or fail with a structured error at a
// cycle inside it, never with a panic. The committed seed corpus
// (testdata/fuzz/FuzzSpecDecode) replays on every plain `go test`; make
// fuzz-smoke explores beyond it.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"fusion/internal/systems"
)

// Bounds on the cells a fuzzed body runs: how many, the largest cycle
// budget run, and each run's wall-clock bound (a run it cuts fails with a
// structured deadline error, which the property allows).
const (
	fuzzRunCells     = 2
	fuzzRunMaxCycles = 2_000_000
	fuzzRunWall      = 5 * time.Second
)

func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{"benches":["fft","adpcm"],"systems":["fusion","scratch"],"base":{"bench":"","system":"","large":true}}`))
	f.Add([]byte(`{"cells":[{"bench":" FFT ","system":"Dx","lease_scale":0.5,"tiles":2,"faults":{"seed":7,"link_jitter_prob":0.25,"link_jitter_max":3}}],"wall_ms":100}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, _, err := decodeSweep(bytes.NewReader(body))
		if err != nil {
			return
		}
		ran := 0
		for i, s := range specs {
			if n := s.Normalized(); !reflect.DeepEqual(n, s) {
				t.Fatalf("cell %d: Normalized is not idempotent: %+v then %+v", i, s, n)
			}
			raw, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("cell %d: accepted spec does not marshal: %v", i, err)
			}
			var back systems.Spec
			if err := json.Unmarshal(raw, &back); err != nil {
				t.Fatalf("cell %d: %s does not unmarshal: %v", i, raw, err)
			}
			if back.Hash() != s.Hash() {
				t.Fatalf("cell %d: hash changed over a JSON round trip: %s\n%s then\n%s",
					i, raw, s.Key(), back.Key())
			}
			if ran < fuzzRunCells && s.MaxCycles <= fuzzRunMaxCycles {
				ran++
				checkRun(t, s)
			}
		}
	})
}

// checkRun runs an accepted, normalized spec through BuildCell and fails
// unless it completed inside max_cycles with a verified memory image, or
// failed with a structured error at a cycle inside max_cycles.
func checkRun(t *testing.T, s systems.Spec) {
	ctx, cancel := context.WithTimeout(context.Background(), fuzzRunWall)
	defer cancel()
	c := BuildCell(ctx, s)
	switch {
	case c.Component == "service.worker":
		t.Fatalf("%s panicked: %s", s.Key(), c.Error)
	case c.Failed() && c.Component == "":
		t.Fatalf("%s failed with an unstructured error: %s", s.Key(), c.Error)
	case c.Failed() && c.ErrCycle > s.MaxCycles:
		t.Fatalf("%s failed at cycle %d, past its budget: %s", s.Key(), c.ErrCycle, c.Error)
	case !c.Failed() && c.Cycles > s.MaxCycles:
		t.Fatalf("%s completed at cycle %d, past its budget", s.Key(), c.Cycles)
	case !c.Failed() && c.LinesBad > 0:
		t.Fatalf("%s left %d of %d lines wrong", s.Key(), c.LinesBad, c.LinesChecked)
	}
}
