package service

// Unit tests for the scheduler and the HTTP layer, driven by a fake job
// body so they run in microseconds. Real-simulator behavior (budgets,
// byte identity, panic injection under load) lives in soak_test.go.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fusion/internal/systems"
)

// fakeCell builds a plausible successful cell for a spec without running
// the simulator.
func fakeCell(spec systems.Spec) *CellResult {
	spec = spec.Normalized()
	return &CellResult{
		Spec: spec, Hash: spec.Hash(),
		Cycles: 1000, EnergyPJ: 1, LinesChecked: 1,
		VersionsDigest: "vd", StatsDigest: "sd",
	}
}

// newTestService wires a Service around a fake job body.
func newTestService(t *testing.T, workers, depth int,
	run func(ctx context.Context, s systems.Spec) *CellResult) *Service {
	t.Helper()
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := &Service{cache: cache, logf: t.Logf}
	s.sched = newScheduler(cache, workers, depth, run)
	s.mux = http.NewServeMux()
	s.routes()
	return s
}

func spec(bench, system string) systems.Spec {
	return systems.Spec{Bench: bench, System: system}
}

// waitDeadline bounds every wait for a scheduler state. The states come
// within milliseconds; the deadline only turns a missed one into a failure
// instead of a hang until the test binary's timeout.
const waitDeadline = 30 * time.Second

// waitFor polls cond with the scheduler's counters every millisecond until
// it holds, failing the test with the last counters once waitDeadline has
// passed.
func waitFor(t *testing.T, svc *Service, what string, cond func(schedCounters) bool) {
	t.Helper()
	deadline := time.Now().Add(waitDeadline)
	for sc := svc.sched.counters(); !cond(sc); sc = svc.sched.counters() {
		if time.Now().After(deadline) {
			t.Fatalf("waited %v for %s; scheduler counters %+v", waitDeadline, what, sc)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitCoalesces: concurrent submits of one spec share a single
// execution.
func TestSubmitCoalesces(t *testing.T) {
	release := make(chan struct{})
	var runs sync.Map
	svc := newTestService(t, 2, 16, func(_ context.Context, s systems.Spec) *CellResult {
		<-release
		n, _ := runs.LoadOrStore(s.Hash(), new(int))
		*n.(*int)++
		return fakeCell(s)
	})
	const callers = 5
	cells := make([]*CellResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell, err := svc.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			cells[i] = cell
		}(i)
	}
	// Let every caller attach before the job completes.
	waitFor(t, svc, "every caller coalesced",
		func(sc schedCounters) bool { return sc.coalesced == callers-1 })
	close(release)
	wg.Wait()
	for i := 1; i < callers; i++ {
		if cells[i] != cells[0] {
			t.Fatalf("caller %d got a different cell object: singleflight broken", i)
		}
	}
	if sc := svc.sched.counters(); sc.ran != 1 {
		t.Fatalf("ran = %d jobs for %d coalesced callers, want 1", sc.ran, callers)
	}
}

// TestSubmitServesFromCache: a completed cell is served from the disk
// cache without re-running, including across a service restart on the
// same cache directory.
func TestSubmitServesFromCache(t *testing.T) {
	dir := t.TempDir()
	runs := 0
	mk := func() *Service {
		cache, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := &Service{cache: cache, logf: t.Logf}
		s.sched = newScheduler(cache, 1, 4, func(_ context.Context, sp systems.Spec) *CellResult {
			runs++
			return fakeCell(sp)
		})
		s.mux = http.NewServeMux()
		s.routes()
		return s
	}
	svc := mk()
	first, err := svc.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
	if err != nil {
		t.Fatal(err)
	}
	again, err := svc.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("second submit re-ran the job (%d runs)", runs)
	}
	if !bytes.Equal(first.Marshal(), again.Marshal()) {
		t.Fatal("cached cell differs from the fresh one")
	}
	// "Restart": a new service over the same directory starts warm.
	svc2 := mk()
	warm, err := svc2.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("restarted service re-ran a persisted cell (%d runs)", runs)
	}
	if !bytes.Equal(first.Marshal(), warm.Marshal()) {
		t.Fatal("persisted cell differs across restart")
	}
}

// TestSubmitRejectsInvalidSpec: validation happens before any queueing.
func TestSubmitRejectsInvalidSpec(t *testing.T) {
	svc := newTestService(t, 1, 4, func(_ context.Context, s systems.Spec) *CellResult {
		return fakeCell(s)
	})
	if _, err := svc.sched.Submit(context.Background(), spec("nope", "fusion"), 0); err == nil {
		t.Fatal("unknown benchmark admitted")
	}
	if sc := svc.sched.counters(); sc.ran != 0 {
		t.Fatal("invalid spec reached a worker")
	}
}

// TestQueueShedsWhenFull: with one busy worker and a one-slot queue, a
// third distinct job is shed with ErrBusy and never runs.
func TestQueueShedsWhenFull(t *testing.T) {
	release := make(chan struct{})
	svc := newTestService(t, 1, 1, func(_ context.Context, s systems.Spec) *CellResult {
		<-release
		return fakeCell(s)
	})
	bg := context.Background()
	var wg sync.WaitGroup
	submit := func(sp systems.Spec) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.sched.Submit(bg, sp, 0); err != nil {
				t.Errorf("admitted job failed: %v", err)
			}
		}()
	}
	submit(spec("adpcm", "fusion")) // occupies the worker
	// Wait for the worker to pick it up so the queue is truly empty.
	waitFor(t, svc, "1 job in flight", func(sc schedCounters) bool { return sc.inflight == 1 })
	submit(spec("adpcm", "shared")) // occupies the queue slot
	waitFor(t, svc, "2 jobs in flight", func(sc schedCounters) bool { return sc.inflight == 2 })
	_, err := svc.sched.Submit(bg, spec("fft", "fusion"), 0)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow submit returned %v, want ErrBusy", err)
	}
	close(release)
	wg.Wait()
	sc := svc.sched.counters()
	if sc.shed != 1 || sc.ran != 2 {
		t.Fatalf("shed=%d ran=%d, want 1 and 2", sc.shed, sc.ran)
	}
}

// TestPanicInJobBodyBecomesCell: a panic anywhere in the job body becomes
// a structured failed cell; the worker survives and runs the next job.
func TestPanicInJobBodyBecomesCell(t *testing.T) {
	svc := newTestService(t, 1, 4, func(_ context.Context, s systems.Spec) *CellResult {
		if s.Bench == "adpcm" {
			panic("injected failure")
		}
		return fakeCell(s)
	})
	cell, err := svc.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.Failed() || cell.Component != "service.worker" {
		t.Fatalf("panic cell = %+v, want a service.worker failure", cell)
	}
	if !strings.Contains(cell.Error, "injected failure") {
		t.Fatalf("panic message lost: %q", cell.Error)
	}
	// The same worker is still alive.
	ok, err := svc.sched.Submit(context.Background(), spec("fft", "fusion"), 0)
	if err != nil || ok.Failed() {
		t.Fatalf("worker did not survive the panic: %v %+v", err, ok)
	}
	sc := svc.sched.counters()
	if sc.panics != 1 {
		t.Fatalf("panics counter = %d, want 1", sc.panics)
	}
	// Failed cells never enter the cache.
	if _, hit := svc.cache.Get(cell.Hash); hit {
		t.Fatal("failed cell was cached")
	}
}

// TestLastWaiterCancelsJob: when every waiter abandons a job, its context
// is canceled so the worker stops burning time on unwanted work.
func TestLastWaiterCancelsJob(t *testing.T) {
	canceled := make(chan struct{})
	svc := newTestService(t, 1, 4, func(ctx context.Context, s systems.Spec) *CellResult {
		<-ctx.Done()
		close(canceled)
		cell := fakeCell(s)
		cell.Error = ctx.Err().Error()
		return cell
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := svc.sched.Submit(ctx, spec("adpcm", "fusion"), 0)
		done <- err
	}()
	waitFor(t, svc, "1 job in flight", func(sc schedCounters) bool { return sc.inflight == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoning waiter got %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("job context was never canceled after the last waiter left")
	}
}

// TestShutdownDrains: running jobs finish, new submits are refused, and
// Shutdown returns nil on a clean drain.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	svc := newTestService(t, 1, 4, func(_ context.Context, s systems.Spec) *CellResult {
		<-release
		return fakeCell(s)
	})
	var got *CellResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		got, _ = svc.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
	}()
	waitFor(t, svc, "1 job in flight", func(sc schedCounters) bool { return sc.inflight == 1 })
	shut := make(chan error, 1)
	go func() { shut <- svc.Shutdown(context.Background()) }()
	// Draining: a fresh submit is refused immediately. A probe that races
	// ahead of the drain flag gets admitted and would block on the busy
	// worker, so each probe carries its own short deadline.
	waitFor(t, svc, "a submit refused with ErrDraining", func(schedCounters) bool {
		pctx, pcancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer pcancel()
		_, err := svc.sched.Submit(pctx, spec("fft", "fusion"), 0)
		return errors.Is(err, ErrDraining)
	})
	close(release)
	if err := <-shut; err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	wg.Wait()
	if got == nil || got.Failed() {
		t.Fatalf("in-flight job did not complete through the drain: %+v", got)
	}
}

// TestShutdownDeadlineCancelsJobs: a drain that overruns its deadline
// cancels outstanding jobs instead of hanging forever.
func TestShutdownDeadlineCancelsJobs(t *testing.T) {
	svc := newTestService(t, 1, 4, func(ctx context.Context, s systems.Spec) *CellResult {
		<-ctx.Done() // a job that never finishes voluntarily
		cell := fakeCell(s)
		cell.Error = "canceled: " + ctx.Err().Error()
		return cell
	})
	go svc.sched.Submit(context.Background(), spec("adpcm", "fusion"), 0)
	waitFor(t, svc, "1 job in flight", func(sc schedCounters) bool { return sc.inflight == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want DeadlineExceeded", err)
	}
}

// --- HTTP layer ---

func postSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHTTPSweepGridOrder: a grid request returns cells in benches-major
// grid order plus explicit cells, regardless of completion order.
func TestHTTPSweepGridOrder(t *testing.T) {
	svc := newTestService(t, 4, 32, func(_ context.Context, s systems.Spec) *CellResult {
		return fakeCell(s)
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	resp, body := postSweep(t, ts, `{
		"benches": ["adpcm", "fft"],
		"systems": ["fusion", "shared"],
		"cells": [{"bench": "hist", "system": "scratch"}]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want := []string{"adpcm/fusion", "adpcm/shared", "fft/fusion", "fft/shared", "hist/scratch"}
	if len(sr.Cells) != len(want) {
		t.Fatalf("got %d cells, want %d", len(sr.Cells), len(want))
	}
	for i, cell := range sr.Cells {
		if got := cell.Spec.Label(); got != want[i] {
			t.Errorf("cell %d = %s, want %s", i, got, want[i])
		}
	}
}

// TestHTTPSweepResponseDeterministic: two identical requests produce
// byte-identical bodies (second served from cache).
func TestHTTPSweepResponseDeterministic(t *testing.T) {
	svc := newTestService(t, 2, 32, func(_ context.Context, s systems.Spec) *CellResult {
		return fakeCell(s)
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	req := `{"benches": ["adpcm"], "systems": ["fusion", "shared"]}`
	_, first := postSweep(t, ts, req)
	_, second := postSweep(t, ts, req)
	if !bytes.Equal(first, second) {
		t.Fatalf("responses differ:\n%s\n%s", first, second)
	}
	if sc := svc.sched.counters(); sc.ran != 2 {
		t.Fatalf("ran = %d, want 2 (second request fully cached)", sc.ran)
	}
}

// TestHTTPBadRequests: malformed bodies, unknown grid entries, unknown
// fields, and empty sweeps are 400s that cost no simulation.
func TestHTTPBadRequests(t *testing.T) {
	svc := newTestService(t, 1, 4, func(_ context.Context, s systems.Spec) *CellResult {
		return fakeCell(s)
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	for name, body := range map[string]string{
		"malformed":       `{`,
		"unknown-field":   `{"benchmarks": ["adpcm"]}`,
		"unknown-bench":   `{"benches": ["nope"], "systems": ["fusion"]}`,
		"unknown-system":  `{"benches": ["adpcm"], "systems": ["quantum"]}`,
		"negative-lease":  `{"cells": [{"bench": "adpcm", "system": "fusion", "lease_scale": -1}]}`,
		"negative-window": `{"cells": [{"bench": "fft", "system": "adaptive", "decision_window": -1}]}`,
		// Validate sees the knobs as sent: -3 tiles would normalize to 1.
		"negative-tiles":    `{"benches": ["fft"], "systems": ["fusion"], "base": {"tiles": -3}}`,
		"too-many-tiles":    `{"cells": [{"bench": "fft", "system": "fusion", "tiles": 40}]}`,
		"lapsed-lease":      `{"cells": [{"bench": "fft", "system": "fusion", "lease_scale": 0.01}]}`,
		"lease-past-run":    `{"cells": [{"bench": "fft", "system": "fusion", "lease_scale": 1e300}]}`,
		"deadline-past-run": `{"cells": [{"bench": "fft", "system": "hydra", "deadline_cycles": 1099511627776}]}`,
		"empty":             `{}`,
		// 100 x 100 identical names, about 1.5 KB, ask for 10,000 cells.
		"grid-too-large": `{"benches":[` + strings.Repeat(`"fft",`, 99) + `"fft"],"systems":[` +
			strings.Repeat(`"fusion",`, 99) + `"fusion"]}`,
	} { //lint:ordered each case asserts independently; no cross-case state
		resp, rb := postSweep(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, rb)
		}
	}
	if sc := svc.sched.counters(); sc.ran != 0 {
		t.Fatalf("bad requests ran %d simulations", sc.ran)
	}
}

// TestHTTP429WhenSaturated: a saturated queue turns into 429 with a
// Retry-After hint, and the shed request's already-admitted sibling cells
// are abandoned (their jobs cancel) rather than burning workers.
func TestHTTP429WhenSaturated(t *testing.T) {
	release := make(chan struct{})
	svc := newTestService(t, 1, 1, func(ctx context.Context, s systems.Spec) *CellResult {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return fakeCell(s)
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	// Saturate: one job on the worker, one in the queue. The jobs are
	// released first on return, a failed one included, so the saturating
	// request is done before ts.Close waits for it.
	var wg sync.WaitGroup
	defer wg.Wait()
	defer close(release)
	wg.Add(1)
	go func() {
		defer wg.Done()
		postSweep(t, ts, `{"benches": ["adpcm"], "systems": ["fusion", "shared"]}`)
	}()
	waitFor(t, svc, "2 jobs in flight", func(sc schedCounters) bool { return sc.inflight == 2 })
	resp, body := postSweep(t, ts, `{"benches": ["fft"], "systems": ["fusion"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without a Retry-After hint")
	}
}

// TestHTTPCellAndHealthAndStats exercises the small read-only endpoints.
func TestHTTPCellAndHealthAndStats(t *testing.T) {
	svc := newTestService(t, 1, 4, func(_ context.Context, s systems.Spec) *CellResult {
		return fakeCell(s)
	})
	ts := httptest.NewServer(svc)
	defer ts.Close()
	_, _ = postSweep(t, ts, `{"benches": ["adpcm"], "systems": ["fusion"]}`)

	hash := spec("adpcm", "fusion").Hash()
	resp, err := http.Get(ts.URL + "/v1/cell/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached cell GET: status %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/cell/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("absent cell GET: status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.JobsRun != 1 || st.CacheEntries != 1 {
		t.Fatalf("statsz = %+v, want jobs_run=1 cache_entries=1", st)
	}
}

// TestWallBudgetRealRun: a real simulation over its wall budget fails its
// cell with a deadline error instead of failing the request.
func TestWallBudgetRealRun(t *testing.T) {
	svc := newTestService(t, 1, 4, BuildCell)
	cell, err := svc.sched.Submit(context.Background(), spec("fft", "fusion"), time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !cell.Failed() {
		t.Skip("fft finished inside 1ms on this machine")
	}
	if cell.Component != "deadline" {
		t.Fatalf("over-budget cell failed with %q (%s), want deadline", cell.Component, cell.Error)
	}
	if _, hit := svc.cache.Get(cell.Hash); hit {
		t.Fatal("deadline cell was cached")
	}
}
