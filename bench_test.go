package fusion_test

// bench_test provides one testing.B target per evaluation artifact of the
// paper (Section 5) plus per-benchmark-per-system simulation benchmarks.
// Each regenerates its table or figure from scratch:
//
//	go test -bench=BenchmarkFigure6b -benchtime=1x
//
// prints nothing by itself (use cmd/fusionbench for the rows); the bench
// numbers report the wall-clock cost of regenerating each artifact.

import (
	"io"
	"testing"

	"fusion"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		exp := fusion.NewExperiments()
		if err := exp.Print(io.Discard, name); err != nil {
			b.Fatal(err)
		}
	}
}

// Table 1: accelerator characteristics (%time, op mix, MLP, %SHR).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// Table 3: per-function execution metrics and cache/compute ratios.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// Figure 6a: dynamic energy breakdown across SCRATCH/SHARED/FUSION.
func BenchmarkFigure6a(b *testing.B) { benchExperiment(b, "fig6a") }

// Figure 6b: cycle time normalized to SCRATCH.
func BenchmarkFigure6b(b *testing.B) { benchExperiment(b, "fig6b") }

// Figure 6c: link traffic breakdown.
func BenchmarkFigure6c(b *testing.B) { benchExperiment(b, "fig6c") }

// Figure 6d: working set vs DMA traffic table.
func BenchmarkFigure6d(b *testing.B) { benchExperiment(b, "fig6d") }

// Table 4: write-through vs writeback L0X bandwidth.
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// Table 5: FUSION-Dx write forwarding.
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// Figure 7: AXC-Large vs Small cache configurations.
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "fig7") }

// Table 6: AX-TLB and AX-RMAP lookup counts.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkAllArtifacts regenerates every artifact through one shared
// runner — the fusionbench default path — sequentially (j1) and with a
// GOMAXPROCS worker pool (jmax). The two must produce identical artifacts;
// only wall-clock may differ.
func BenchmarkAllArtifacts(b *testing.B) {
	for _, c := range []struct {
		name    string
		workers int
	}{{"j1", 1}, {"jmax", 0}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exp := fusion.NewExperiments()
				exp.SetWorkers(c.workers)
				if err := exp.Print(io.Discard, "all"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Per-benchmark x system simulation cost, over every registered system in
// registry order. The sub-benchmark names follow <benchmark>/<system>.
func BenchmarkSimulate(b *testing.B) {
	for _, name := range fusion.Benchmarks() {
		for _, sysName := range fusion.Systems() {
			sys, ok := fusion.ParseSystem(sysName)
			if !ok {
				b.Fatalf("registered system %q does not parse", sysName)
			}
			b.Run(name+"/"+sysName, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bench := fusion.LoadBenchmark(name)
					res, err := fusion.Run(bench, fusion.DefaultConfig(sys))
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(res.Cycles), "simcycles")
				}
			})
		}
	}
}

// BenchmarkTraceGeneration measures workload synthesis alone.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, name := range fusion.Benchmarks() {
			fusion.LoadBenchmark(name)
		}
	}
}
