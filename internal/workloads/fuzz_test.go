package workloads

// Native fuzzing of the benchfile boundary: LoadJSON takes hand-edited and
// externally produced traces, so no input may panic it, and every
// benchmark it accepts must survive a save/load round trip unchanged.
// The committed seed corpus (testdata/fuzz/FuzzLoadJSON) replays on every
// plain `go test`; make fuzz-smoke explores beyond it.

import (
	"bytes"
	"testing"
)

func FuzzLoadJSON(f *testing.F) {
	p := RandomParams{MaxAXCs: 2, MaxPhases: 2, MaxRegions: 2, MaxRegionKB: 1,
		MaxIterOps: 4, HostPhases: true, SerialChance: 0.5}
	var buf bytes.Buffer
	if err := SaveJSON(&buf, Random(3, p)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := LoadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := SaveJSON(&first, b); err != nil {
			t.Fatalf("accepted benchmark does not save: %v", err)
		}
		b2, err := LoadJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved benchmark does not load: %v\n%s", err, first.Bytes())
		}
		if err := SaveJSON(&second, b2); err != nil {
			t.Fatalf("reloaded benchmark does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load round trip changed the benchmark:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}
