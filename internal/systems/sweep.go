package systems

// Parallel sweep execution. Each systems.Run is an independent,
// single-threaded simulation with no shared mutable state (the engine,
// stats, meters, and RNGs are all per-run), so a sweep parallelizes
// perfectly across runs. ForEach is the one bounded worker pool: RunAll,
// Soak and the experiments layer fan a fixed item list out on it and
// assemble results in item order, which makes every downstream report
// byte-identical regardless of worker count or completion order.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"fusion/internal/sim"
	"fusion/internal/workloads"
)

// SweepItem is one independent simulation of a sweep.
type SweepItem struct {
	// Key names the item in errors (typically "bench/system/knobs...").
	Key    string
	Bench  *workloads.Benchmark
	Config Config
}

// SweepError attaches the originating sweep key to a failed run, so a
// *sim.ProtocolError surfacing from an 80-cell sweep still names the
// (benchmark, config) cell that raised it. Use errors.As to reach the
// underlying protocol error.
type SweepError struct {
	Key string
	Err error
}

func (e *SweepError) Error() string { return e.Key + ": " + e.Err.Error() }
func (e *SweepError) Unwrap() error { return e.Err }

// Workers resolves a worker-count knob: n > 0 is taken as-is, anything
// else means GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach calls fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines, handing out indices in increasing order, and returns once
// every call has. fn records its outcome in slot i, so callers assemble
// results in index order whatever order the calls finish in.
func ForEach(n, workers int, fn func(i int)) {
	workers = min(Workers(workers), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunAll executes every item on a pool of at most `workers` goroutines
// (<=0: GOMAXPROCS) and returns the results in item order. See RunAllCtx
// for the failure and cancellation semantics.
func RunAll(items []SweepItem, workers int) ([]*Result, error) {
	return RunAllCtx(context.Background(), items, workers)
}

// RunAllCtx executes every item on a bounded worker pool under a context.
// Benchmarks are never mutated by Run, so items may share *Benchmark
// values. The sweep stops promptly on the first failure: the failing cell
// cancels a sweep-local context, in-flight runs observe the cancel and
// abort (within cancelPollCycles simulated cycles), and unstarted cells
// are skipped. Canceling ctx from outside stops the sweep the same way.
//
// The returned error is the sweep's root cause: the first failing item in
// ITEM order whose error is not a cancellation knock-on, wrapped in a
// *SweepError carrying the item's Key (if every recorded error is a
// cancellation — the caller canceled ctx — the first of those is
// returned). Results of items that completed before the stop are still
// returned; aborted and skipped cells are nil.
func RunAllCtx(ctx context.Context, items []SweepItem, workers int) ([]*Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Result, len(items))
	errs := make([]error, len(items))
	ForEach(len(items), workers, func(i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = &SweepError{Key: items[i].Key, Err: err}
			return
		}
		res, err := RunCtx(ctx, items[i].Bench, items[i].Config)
		if err != nil {
			errs[i] = &SweepError{Key: items[i].Key, Err: err}
			cancel()
			return
		}
		results[i] = res
	})
	var firstCancel error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if !sim.IsCancellation(err) {
			return results, err
		}
		if firstCancel == nil {
			firstCancel = err
		}
	}
	return results, firstCancel
}
