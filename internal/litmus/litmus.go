// Package litmus is the coherence litmus harness: it records every load
// and store any agent performs — via the obs.Observer hook threaded
// through acc (L0X/L1X), mesi.Client, and the scratchpad — and checks the
// full trace against each system's declared visibility model.
//
// The models (see Check):
//
//   - Strict agents (MESI clients, the scratchpad within a window) must
//     read the latest globally-ordered write of every line.
//   - FUSION L0X reads may return stale data only within a live lease and
//     never across a task/acquire (phase) boundary: a leased read must
//     observe at least the last version that was globally ordered before
//     its synchronization epoch began.
//
// The harness ships three layers: a directed suite (Cases) of small
// workloads programs with allowed-outcome sets, a randomized generator
// (RunRandom) driving all four systems through the checker, and a
// mutation-kill validator (Mutations) proving the checker's sensitivity:
// each mutation arms a deliberate protocol bug behind a test-only knob and
// the harness must fail on it.
package litmus

import (
	"fmt"
	"sort"

	"fusion/internal/mem"
	"fusion/internal/obs"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// Recorder buffers the loads, stores, fills and grants of one run,
// stamping each with the current synchronization epoch: the phase index of
// the latest phase mark the systems runner recorded. It implements
// obs.Observer.
type Recorder struct {
	epoch int32
	obs   []obs.Event
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record implements obs.Observer.
func (r *Recorder) Record(e obs.Event) {
	switch e.Kind {
	case obs.Phase:
		r.epoch = e.Epoch
	case obs.Load, obs.Store, obs.Fill, obs.LeaseGrant, obs.EpochGrant:
		e.Epoch = r.epoch
		r.obs = append(r.obs, e)
	default:
		// The other protocol transitions carry no value to check.
	}
}

// Observations returns the recorded stream in program order.
func (r *Recorder) Observations() []obs.Event { return r.obs }

// Report is the outcome of one (case, system) litmus run.
type Report struct {
	Case         string
	System       systems.Kind
	Observations int
	Cycles       uint64
	// Violations are the observations that contradicted the visibility
	// model, in trace order.
	Violations []Violation
	// FinalMismatches counts program lines whose final memory image
	// diverged from the sequential golden image. The value checker is
	// strictly stronger — a mutant can corrupt a read without ever
	// corrupting the final image — but unmutated runs must report zero
	// here too.
	FinalMismatches int
	// ScenarioErr reports a failed scenario assertion (e.g. a directed
	// case that never exercised the protocol path it exists to test).
	ScenarioErr error
}

// Failed reports whether the run violated its model or its scenario.
func (r *Report) Failed() bool {
	return len(r.Violations) > 0 || r.FinalMismatches > 0 || r.ScenarioErr != nil
}

// RunCase executes one directed case on one system, with an optional
// config mutation (nil for a clean run), and checks the recorded trace.
func RunCase(c *Case, kind systems.Kind, mutate func(*systems.Config)) (*Report, error) {
	b := c.Build()
	rec := NewRecorder()
	cfg := systems.DefaultConfig(kind)
	cfg.Observer = rec
	if c.Tune != nil {
		c.Tune(&cfg)
	}
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := systems.Run(b, cfg)
	if err != nil {
		return nil, fmt.Errorf("litmus %s on %s: %w", c.Name, kind, err)
	}
	rep := report(c.Name, kind, b, rec, res)
	if c.Check != nil {
		rep.ScenarioErr = c.Check(kind, res)
	}
	return rep, nil
}

// RunRandom drives one randomized workload (workloads.Random) through
// system kind with the checker attached — the randomized litmus layer.
func RunRandom(seed int64, kind systems.Kind) (*Report, error) {
	b := workloads.Random(seed, workloads.DefaultRandomParams())
	rec := NewRecorder()
	cfg := systems.DefaultConfig(kind)
	cfg.Observer = rec
	res, err := systems.Run(b, cfg)
	if err != nil {
		return nil, fmt.Errorf("litmus random seed %d on %s: %w", seed, kind, err)
	}
	return report(fmt.Sprintf("random-%d", seed), kind, b, rec, res), nil
}

// report checks the recorded trace and the final image.
func report(name string, kind systems.Kind, b *workloads.Benchmark,
	rec *Recorder, res *systems.Result) *Report {
	rep := &Report{
		Case:         name,
		System:       kind,
		Observations: len(rec.Observations()),
		Cycles:       res.Cycles,
		Violations:   Check(rec.Observations(), b, res.LineMap),
	}
	want := systems.ExpectedVersions(b)
	lines := make([]mem.VAddr, 0, len(want))
	for va := range want {
		lines = append(lines, va)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, va := range lines {
		if res.FinalVersions[va] != want[va] {
			rep.FinalMismatches++
		}
	}
	return rep
}

// RunNamed runs the directed case `name` (or every case for "all") on each
// of its declared systems and returns one report per (case, system) pair.
func RunNamed(name string) ([]*Report, error) {
	var cases []*Case
	if name == "all" {
		cases = Cases()
	} else {
		c := caseByName(name)
		if c == nil {
			return nil, fmt.Errorf("unknown litmus case %q (have: %v)", name, CaseNames())
		}
		cases = []*Case{c}
	}
	var out []*Report
	for _, c := range cases {
		for _, kind := range c.Systems {
			rep, err := RunCase(c, kind, nil)
			if err != nil {
				return out, err
			}
			out = append(out, rep)
		}
	}
	return out, nil
}
