package experiments

// Up-front sweep planning. Every artifact reads one grid of runs —
// benchmarks × configs — declared beside its rows function, so its needs
// are enumerable before any simulation runs. That turns artifact
// regeneration into an embarrassingly parallel sweep: Prefetch enumerates
// the union of the requested artifacts' grids in a fixed order,
// deduplicates cells singleflight-style and fans them out over the bounded
// worker pool, and each artifact then fetches its own grid through the
// memo and computes its rows in fixed order — so reports are
// byte-identical for any worker count.

import (
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// grid is the runs an artifact reads: every benchmark under each config.
type grid struct {
	names []string
	cfgs  []systems.Config
}

// cell is one (benchmark, config) run.
type cell struct {
	bench string
	cfg   systems.Config
}

// cells enumerates g benchmark by benchmark, each under every config.
func (g grid) cells() []cell {
	cells := make([]cell, 0, len(g.names)*len(g.cfgs))
	for _, name := range g.names {
		for _, cfg := range g.cfgs {
			cells = append(cells, cell{name, cfg})
		}
	}
	return cells
}

// results is a fetched grid, the input of an artifact's rows function.
type results struct {
	grid
	benches []*workloads.Benchmark // benches[i] is names[i]'s generated program
	res     []*systems.Result      // in cells order
}

// run returns benchmark i's result under config j.
func (rs results) run(i, j int) *systems.Result { return rs.res[i*len(rs.cfgs)+j] }

// def is one artifact's definition: the grid it reads and the rows function
// that computes its typed rows from the grid's results.
type def[T any] struct {
	grid grid
	rows func(results) T
}

// data fetches d's grid through r's memo and computes its rows.
func (d def[T]) data(r *Runner) (T, error) {
	res, err := r.runCells(d.grid.cells())
	if err != nil {
		var zero T
		return zero, err
	}
	rs := results{grid: d.grid, res: res}
	for _, name := range d.grid.names {
		rs.benches = append(rs.benches, r.bench(name))
	}
	return d.rows(rs), nil
}

// defaults returns each system's default configuration.
func defaults(kinds ...systems.Kind) []systems.Config {
	cfgs := make([]systems.Config, len(kinds))
	for i, k := range kinds {
		cfgs[i] = systems.DefaultConfig(k)
	}
	return cfgs
}

// sweep returns kind's default configuration once per value, set applied.
func sweep[V any](kind systems.Kind, set func(*systems.Config, V), vals ...V) []systems.Config {
	cfgs := make([]systems.Config, len(vals))
	for i, v := range vals {
		cfgs[i] = systems.DefaultConfig(kind)
		set(&cfgs[i], v)
	}
	return cfgs
}

// The grids several artifacts share. Each SCRATCH-normalized artifact's
// grid lists SCRATCH first.
var (
	fusionGrid   = grid{workloads.Names(), defaults(systems.Fusion)}
	comparedGrid = grid{workloads.Names(), defaults(SystemsCompared()...)}
)

// runCells returns every cell's result, in order, through the memo. With
// one worker it runs them one at a time and stops at the first failure;
// with more it simulates the missing ones on the worker pool. On failure
// it returns the first failing cell in enumeration order (never completion
// order), a *systems.SweepError naming the cell.
func (r *Runner) runCells(cells []cell) ([]*systems.Result, error) {
	res := make([]*systems.Result, len(cells))
	workers := systems.Workers(r.workers)
	if workers <= 1 {
		for i, c := range cells {
			var err error
			if res[i], err = r.Run(c.bench, c.cfg); err != nil {
				return nil, err
			}
		}
		return res, nil
	}
	errs := make([]error, len(cells))
	systems.ForEach(len(cells), workers, func(i int) {
		res[i], errs[i] = r.Run(cells[i].bench, cells[i].cfg)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// prefetchAll prefetches the union of every registered artifact's runs.
func (r *Runner) prefetchAll() error { return r.Prefetch(Names()...) }

// Prefetch simulates the union of the named artifacts' grids, deduplicated
// across artifacts, on the runner's worker pool. With one worker it is a
// no-op: each artifact then runs its own grid in order as it renders,
// exactly as the sequential path always has. Its error is runCells'.
func (r *Runner) Prefetch(names ...string) error {
	if systems.Workers(r.workers) <= 1 {
		return nil
	}
	var cells []cell
	seen := make(map[string]bool)
	for _, name := range names {
		a := artifactNamed(name)
		if a == nil {
			continue
		}
		for _, c := range a.grid.cells() {
			if key := runKey(c.bench, c.cfg); !seen[key] {
				seen[key] = true
				cells = append(cells, c)
			}
		}
	}
	_, err := r.runCells(cells)
	return err
}
