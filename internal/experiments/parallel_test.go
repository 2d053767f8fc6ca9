package experiments

// Tests for the parallel sweep runner: parallel prefetching must leave
// reports byte-identical to the sequential path, and a single Runner must
// be safe to share across concurrent sweeps without ever simulating a cell
// twice.

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"testing"

	"fusion/internal/sim"
	"fusion/internal/systems"
)

// TestParallelPrintByteIdentical renders artifacts with 1 worker and with
// 8 and requires byte-identical reports: completion order must never leak
// into output.
func TestParallelPrintByteIdentical(t *testing.T) {
	names := []string{"ablate-lease", "ablate-tiles", "ablate-dma"}
	render := func(workers int) string {
		r := NewRunner()
		r.SetWorkers(workers)
		var buf bytes.Buffer
		for _, name := range names {
			if err := r.Print(&buf, name); err != nil {
				t.Fatalf("-j %d: %s: %v", workers, name, err)
			}
			if err := r.PrintJSON(&buf, name); err != nil {
				t.Fatalf("-j %d: %s json: %v", workers, name, err)
			}
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("reports differ between -j 1 and -j 8:\n-- sequential --\n%s\n-- parallel --\n%s", seq, par)
	}
}

// TestFig6eParallelByteIdentical renders the all-systems artifact (the one
// whose column set derives from the systems registry) with 1 worker and
// with 8 and requires byte-identical reports, with the ADAPTIVE and HYDRA
// columns present in both.
func TestFig6eParallelByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6e sweeps every workload x system")
	}
	render := func(workers int) string {
		r := NewRunner()
		r.SetWorkers(workers)
		var buf bytes.Buffer
		if err := r.Print(&buf, "fig6e"); err != nil {
			t.Fatalf("-j %d: %v", workers, err)
		}
		if err := r.PrintJSON(&buf, "fig6e"); err != nil {
			t.Fatalf("-j %d json: %v", workers, err)
		}
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Fatalf("fig6e differs between -j 1 and -j 8:\n-- sequential --\n%s\n-- parallel --\n%s", seq, par)
	}
	for _, kind := range systems.Kinds() {
		if !strings.Contains(seq, kind.String()) {
			t.Errorf("fig6e omits the %s column", kind)
		}
	}
}

// TestConcurrentSweepsShareOneRunner drives one Runner from several
// goroutines at once — overlapping Prefetch sweeps plus direct Run calls
// on the same cells — and asserts singleflight did its job: every caller
// observed the same memoized *Result, and the distinct-cell count equals
// the number of simulations actually executed.
func TestConcurrentSweepsShareOneRunner(t *testing.T) {
	r := NewRunner()
	r.SetWorkers(2)
	cfg := systems.DefaultConfig(systems.Fusion)
	const callers = 6
	results := make([]*systems.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if err := r.Prefetch("ablate-tiles"); err != nil {
					t.Errorf("caller %d: %v", i, err)
					return
				}
			}
			res, err := r.Run("adpcm", cfg)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d observed a different result object: memoization broken", i)
		}
	}
	// ablate-tiles needs 6 cells; adpcm/FUSION at its defaults is counted
	// once more, in case it is not one of them.
	distinct := make(map[string]bool)
	for _, c := range ablateTilesDef.grid.cells() {
		distinct[runKey(c.bench, c.cfg)] = true
	}
	distinct[runKey("adpcm", cfg)] = true
	if got, want := r.SimRuns(), int64(len(distinct)); got != want {
		t.Fatalf("executed %d simulations for %d distinct cells", got, want)
	}
}

// TestSweepErrorCarriesKey forces a protocol failure and checks the
// originating cell's key survives the trip through the memo layer. The
// watchdog knob is part of runKey (the serializable spec), so the poisoned
// cell memoizes separately from the healthy adpcm/fusion cell; the runner
// is throwaway anyway.
func TestSweepErrorCarriesKey(t *testing.T) {
	r := NewRunner()
	cfg := systems.DefaultConfig(systems.Fusion)
	cfg.WatchdogCycles = 1 // trips immediately: no system makes progress every cycle
	_, err := r.Run("adpcm", cfg)
	if err == nil {
		t.Fatal("watchdog with a 1-cycle window did not trip")
	}
	var se *systems.SweepError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not carry a sweep key", err)
	}
	if !strings.HasPrefix(se.Key, "adpcm/") {
		t.Fatalf("sweep key %q does not name the originating cell", se.Key)
	}
	var pe *sim.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not unwrap to the underlying protocol error", err)
	}
}
