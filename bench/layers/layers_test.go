package layers

import "testing"

// BenchmarkLayers runs every microbenchmark as a sub-benchmark, so
// `go test -bench . ./layers` reports the same operations fusionperf's
// traced runs do.
func BenchmarkLayers(b *testing.B) {
	for _, m := range All() {
		b.Run(m.Name, m.Bench)
	}
}
