package experiments

// Up-front sweep planning. Every artifact's (benchmark, config) needs are
// enumerable before any simulation runs, which is what turns artifact
// regeneration into an embarrassingly parallel sweep: Prefetch enumerates
// the union for the requested artifacts in a fixed order, deduplicates
// cells singleflight-style, fans the misses out over a bounded worker
// pool, and lets the (sequential, order-fixed) artifact assembly read the
// memoized results — so reports are byte-identical for any worker count.

import (
	"sync"
	"sync/atomic"

	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// Req is one simulation an artifact consumes.
type Req struct {
	Name   string
	Config systems.Config
}

// requirements enumerates, in a fixed order, every run the named artifact
// reads. Each artifact's run list must stay in lockstep with its body in
// experiments.go/ablations.go — TestRequirementsCoverEveryArtifact fails
// if an artifact executes a run its list did not enumerate.
func requirements(name string) []Req {
	if a := artifactNamed(name); a != nil {
		return a.runs()
	}
	return nil
}

// perBench enumerates, benchmark by benchmark, one run of each config.
func perBench(benches []string, cfgs ...systems.Config) []Req {
	var reqs []Req
	for _, n := range benches {
		for _, cfg := range cfgs {
			reqs = append(reqs, Req{n, cfg})
		}
	}
	return reqs
}

// defaults returns each system's default configuration.
func defaults(kinds ...systems.Kind) []systems.Config {
	cfgs := make([]systems.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = systems.DefaultConfig(k)
	}
	return cfgs
}

// The run lists of the artifact table, each over the paper benchmarks or
// an ablation's subset.

func fusionRuns() []Req   { return perBench(workloads.Names(), defaults(systems.Fusion)...) }
func comparedRuns() []Req { return perBench(workloads.Names(), defaults(SystemsCompared()...)...) }
func scratchRuns() []Req  { return perBench(workloads.Names(), defaults(systems.Scratch)...) }

func everySystemRuns() []Req { return perBench(workloads.Names(), defaults(systems.Kinds()...)...) }

func forwardingRuns() []Req {
	return perBench(workloads.Names(), defaults(systems.Fusion, systems.FusionDx)...)
}

func writePolicyRuns() []Req {
	wt := systems.DefaultConfig(systems.Fusion)
	wt.WriteThrough = true
	return perBench(workloads.Names(), systems.DefaultConfig(systems.Fusion), wt)
}

func largeRuns() []Req {
	large := systems.DefaultConfig(systems.Fusion)
	large.Large = true
	return perBench(workloads.Names(), systems.DefaultConfig(systems.Fusion), large)
}

func leaseRuns() []Req {
	var cfgs []systems.Config
	for _, sc := range []float64{0.25, 0.5, 1.0, 2.0, 4.0} {
		cfg := systems.DefaultConfig(systems.Fusion)
		cfg.LeaseScale = sc
		cfgs = append(cfgs, cfg)
	}
	return perBench([]string{"adpcm", "filt", "fft"}, cfgs...)
}

func dmaRuns() []Req {
	cfgs := defaults(systems.Fusion)
	for _, depth := range []int{1, 2, 4, 8} {
		cfg := systems.DefaultConfig(systems.Scratch)
		cfg.DMAOutstanding = depth
		if depth > 1 {
			cfg.DMAGap = 4
		}
		cfgs = append(cfgs, cfg)
	}
	return perBench([]string{"fft", "disp", "hist"}, cfgs...)
}

func tilesRuns() []Req {
	var cfgs []systems.Config
	for _, tiles := range []int{1, 2} {
		cfg := systems.DefaultConfig(systems.Fusion)
		cfg.Tiles = tiles
		cfgs = append(cfgs, cfg)
	}
	return perBench([]string{"fft", "adpcm", "susan"}, cfgs...)
}

// prefetchAll prefetches the union of every registered artifact's runs.
func (r *Runner) prefetchAll() error { return r.Prefetch(Names()...) }

// Prefetch simulates every run the named artifacts need, deduplicated
// across artifacts and fanned out over the runner's worker pool. With one
// worker it is a no-op: the artifact bodies then execute lazily, exactly
// as the sequential path always has. On failure it returns the first
// failing cell in enumeration order (never completion order), wrapped in a
// *systems.SweepError naming the cell.
func (r *Runner) Prefetch(names ...string) error {
	workers := systems.Workers(r.workers)
	if workers <= 1 {
		return nil
	}
	var reqs []Req
	seen := make(map[string]bool)
	for _, name := range names {
		for _, q := range requirements(name) {
			key := runKey(q.Name, q.Config)
			if !seen[key] {
				seen[key] = true
				reqs = append(reqs, q)
			}
		}
	}
	if len(reqs) == 0 {
		return nil
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	errs := make([]error, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				_, errs[i] = r.Run(reqs[i].Name, reqs[i].Config)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
