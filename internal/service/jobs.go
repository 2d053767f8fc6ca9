package service

import (
	"context"
	"errors"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"fusion/internal/sim"
	"fusion/internal/systems"
)

// Scheduler errors, mapped to HTTP statuses by the handler layer.
var (
	// ErrBusy: the job queue is full; the client should back off and
	// retry (429 + Retry-After).
	ErrBusy = errors.New("service: job queue full")
	// ErrDraining: the service is shutting down and admits no new work
	// (503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
)

// job is one in-flight simulation, shared by every waiter that asked for
// the same spec (singleflight). The job owns its own context: it is
// detached from any single request and canceled only when the last
// waiter walks away or the scheduler shuts down abortively.
type job struct {
	spec systems.Spec
	hash string
	wall time.Duration // wall budget from the admitting request; 0 = none

	ctx    context.Context
	cancel context.CancelFunc

	ready   chan struct{} // closed once cell is set
	cell    *CellResult
	waiters int
}

// scheduler owns the worker pool, the bounded admission queue, and the
// singleflight table. All simulator work in the service funnels through
// Submit.
type scheduler struct {
	cache *Cache
	run   func(ctx context.Context, s systems.Spec) *CellResult

	mu       sync.Mutex
	jobs     map[string]*job //guard: mu — the singleflight table
	draining bool            //guard: mu

	queue   chan *job
	workers sync.WaitGroup // worker goroutines

	// Counters.
	ran       int64 //guard: mu — jobs executed (not coalesced, not cache hits)
	coalesced int64 //guard: mu — submits attached to an existing job
	shed      int64 //guard: mu — submits rejected with ErrBusy
	panics    int64 //guard: mu — cells whose failure was a recovered panic
	putErrs   int64 //guard: mu — cache writes that failed (cell still served)
}

// newScheduler starts `workers` workers over a queue of depth `depth`.
// run is the job body — BuildCell in production, swappable in tests to
// inject panics and stalls.
func newScheduler(cache *Cache, workers, depth int,
	run func(ctx context.Context, s systems.Spec) *CellResult) *scheduler {
	s := &scheduler{
		cache: cache,
		run:   run,
		jobs:  map[string]*job{},
		queue: make(chan *job, depth),
	}
	for i := 0; i < workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Submit resolves one spec to a cell: from the in-flight job table
// (coalescing), from the disk cache, or by queueing a new job and
// waiting. ctx is the caller's interest, not the job's lifetime — when
// ctx ends, the caller detaches; the job itself is canceled only when
// its last waiter detaches. wall bounds the job's wall-clock time if it
// is this submit that creates the job.
func (s *scheduler) Submit(ctx context.Context, spec systems.Spec, wall time.Duration) (*CellResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.Normalized()
	hash := spec.Hash()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	if j, ok := s.jobs[hash]; ok {
		j.waiters++
		s.coalesced++
		s.mu.Unlock()
		return s.wait(ctx, j)
	}
	s.mu.Unlock()

	if cell, ok := s.cache.Get(hash); ok {
		return cell, nil
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Re-check the table: another submit may have raced the cache probe.
	if j, ok := s.jobs[hash]; ok {
		j.waiters++
		s.coalesced++
		s.mu.Unlock()
		return s.wait(ctx, j)
	}
	jctx, cancel := context.WithCancel(context.Background())
	j := &job{
		spec: spec, hash: hash, wall: wall,
		ctx: jctx, cancel: cancel,
		ready: make(chan struct{}), waiters: 1,
	}
	select {
	case s.queue <- j:
	default:
		s.shed++
		s.mu.Unlock()
		cancel()
		return nil, ErrBusy
	}
	s.jobs[hash] = j
	s.mu.Unlock()
	return s.wait(ctx, j)
}

// wait blocks until the job completes or the caller's context ends. A
// departing caller decrements the waiter count; the last one out cancels
// the job, so abandoned work stops burning a worker.
func (s *scheduler) wait(ctx context.Context, j *job) (*CellResult, error) {
	select {
	case <-j.ready:
		return j.cell, nil
	case <-ctx.Done():
		s.mu.Lock()
		j.waiters--
		if j.waiters == 0 {
			j.cancel()
		}
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// worker drains the queue until it closes (shutdown). Each job runs under
// its own context, optionally wall-bounded, with the run body's panic
// recovery guaranteeing the worker — and the daemon — survives anything
// the simulator does.
func (s *scheduler) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		ctx, cancel := j.ctx, j.cancel
		if j.wall > 0 {
			ctx, cancel = context.WithTimeout(j.ctx, j.wall)
		}
		cell := s.safeRun(ctx, j.spec)
		cancel()
		var putErr error
		if !cell.Failed() {
			// A put failure is not the client's problem: the cell is
			// still served; the cache just stays cold for this spec.
			putErr = s.cache.Put(cell)
		}
		s.mu.Lock()
		s.ran++
		if putErr != nil {
			s.putErrs++
		}
		if cell.Component == "service.worker" {
			s.panics++
		}
		//lint:hotmap dedup table keyed by spec hash; one delete per job, and a job is an entire simulation
		delete(s.jobs, j.hash)
		j.cell = cell
		s.mu.Unlock()
		close(j.ready)
		j.cancel()
	}
}

// safeRun executes the job body with a final layer of panic recovery.
// BuildCell already converts simulator panics, but the worker must
// survive even a bug in the job body itself — a dead worker would shrink
// the pool silently until the daemon deadlocks.
func (s *scheduler) safeRun(ctx context.Context, spec systems.Spec) (cell *CellResult) {
	defer func() {
		if r := recover(); r != nil {
			spec = spec.Normalized()
			cell = &CellResult{Spec: spec, Hash: spec.Hash()}
			pe := sim.PanicError("service.worker", 0, r, string(debug.Stack()))
			fillError(cell, pe)
		}
	}()
	return s.run(ctx, spec)
}

// Shutdown stops admission and drains: queued and running jobs keep
// executing until done or until ctx expires, at which point every
// remaining job is canceled and the workers are joined. It returns nil
// on a clean drain and ctx's error if the deadline forced cancellation.
func (s *scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("service: shutdown already in progress")
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		hashes := make([]string, 0, len(s.jobs))
		for h := range s.jobs {
			hashes = append(hashes, h)
		}
		sort.Strings(hashes)
		for _, h := range hashes {
			s.jobs[h].cancel()
		}
		s.mu.Unlock()
		<-done // cancellation unblocks the workers promptly
		return ctx.Err()
	}
}

// schedCounters is a snapshot of the scheduler's activity counters.
type schedCounters struct {
	ran, coalesced, shed, panics, putErrs int64
	inflight                              int
}

// counters snapshots the scheduler counters.
func (s *scheduler) counters() schedCounters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return schedCounters{
		ran: s.ran, coalesced: s.coalesced, shed: s.shed,
		panics: s.panics, putErrs: s.putErrs, inflight: len(s.jobs),
	}
}
