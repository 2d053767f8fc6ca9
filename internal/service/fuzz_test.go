package service

// Native fuzzing of fusiond's request boundary: a sweep body is decoded,
// expanded, normalized and validated exactly as handleSweep does it
// (decodeSweep), without running a simulation. No body may panic the
// decoder, and every cell it accepts must have a stable identity: its
// normalization is idempotent and its content hash, the result-cache key,
// survives a JSON round trip. The committed seed corpus
// (testdata/fuzz/FuzzSpecDecode) replays on every plain `go test`; make
// fuzz-smoke explores beyond it.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"fusion/internal/systems"
)

func FuzzSpecDecode(f *testing.F) {
	f.Add([]byte(`{"benches":["fft","adpcm"],"systems":["fusion","scratch"],"base":{"bench":"","system":"","large":true}}`))
	f.Add([]byte(`{"cells":[{"bench":" FFT ","system":"Dx","lease_scale":0.5,"tiles":2,"faults":{"seed":7,"link_jitter_prob":0.25,"link_jitter_max":3}}],"wall_ms":100}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		specs, _, err := decodeSweep(bytes.NewReader(body))
		if err != nil {
			return
		}
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
		}
	})
}
