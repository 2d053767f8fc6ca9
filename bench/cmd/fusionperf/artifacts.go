package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"

	"fusion/bench/golden"
	"fusion/internal/experiments"
	"fusion/internal/workloads"
)

// artifactsWorkload is what a user of the reproduction runs: every table
// and figure at -j 1. It is the only workload where the experiments layer
// (memo, rendering, chart copies) does real work.
func artifactsWorkload() workload {
	return artifactsOf("all")
}

// artifactsOf regenerates target ("all", or one artifact in tests) in each
// pass.
func artifactsOf(target string) workload {
	return workload{
		name:      "artifacts",
		minPasses: 3,
		opClasses: []string{"pass"},
		setup: func(_ options, tr *tracer, parent int) (instance, error) {
			return setupArtifacts(target, tr, parent), nil
		},
	}
}

type artifactsInstance struct {
	target string
	want   string // golden SHA-256 of the output ("" when target is not "all")
	seen   string // SHA-256 of the first pass's output
	// warm is the runner of the traced pass, which afterTrace re-renders.
	warm *experiments.Runner
}

// setupArtifacts generates the seven paper programs every artifact
// consumes. The artifact runner generates its own copies lazily during a
// pass, so this measures the input-generation cost a pass also pays.
func setupArtifacts(target string, tr *tracer, parent int) *artifactsInstance {
	for _, name := range workloads.Names() {
		s := tr.begin("workloads.gen", parent)
		workloads.Get(name)
		tr.end(s)
	}
	inst := &artifactsInstance{target: target}
	if target == "all" {
		inst.want = golden.ArtifactsSHA256()
	}
	return inst
}

func (a *artifactsInstance) more(int) bool { return true }
func (a *artifactsInstance) close() error  { return nil }

// newRunner is the runner a user gets from fusionbench -j 1.
func newRunner() *experiments.Runner {
	r := experiments.NewRunner()
	r.SetWorkers(1)
	return r
}

// pass regenerates the target on a fresh runner.
func (a *artifactsInstance) pass(p *passCtx) {
	r := newRunner()
	h := sha256.New()
	var err error
	if a.target == "all" {
		err = printEach(r, h, p)
		if p.tr != nil {
			a.warm = r
		}
	} else {
		err = r.Print(h, a.target)
	}
	p.rec.op("pass", p.elapsed())
	if err != nil {
		p.rec.fail("%s: %v", a.target, err)
		return
	}
	a.check(p.rec, "pass", h)
}

// printEach prints the artifacts one by one, in a span each, splitting the
// pass's timing between them. At one worker that is the same work, in the
// same order, as Print(w, "all"), and the output bytes are the same: every
// pass checks them against the golden SHA-256 of Print(w, "all").
func printEach(r *experiments.Runner, w io.Writer, p *passCtx) error {
	for _, e := range r.All() {
		s := p.tr.begin("experiments.print."+e.Name, p.span)
		err := r.Print(w, e.Name)
		p.tr.end(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		p.split()
	}
	return nil
}

// check compares an output digest with the golden and the first pass.
func (a *artifactsInstance) check(rec *recorder, what string, h hash.Hash) {
	sum := hex.EncodeToString(h.Sum(nil))
	if a.seen == "" {
		a.seen = sum
	}
	switch {
	case a.want != "" && sum != a.want:
		rec.fail("%s: artifact SHA-256 %.12s differs from golden %.12s", what, sum, a.want)
	case sum != a.seen:
		rec.fail("%s: artifact SHA-256 changed between passes", what)
	}
}

// afterTrace re-renders "all" on the traced pass's warm runner: every
// simulation is memoized, so this is the rendering cost alone.
func (a *artifactsInstance) afterTrace(tr *tracer, rec *recorder) {
	if a.warm == nil {
		return
	}
	h := sha256.New()
	s := tr.begin("experiments.render", 0)
	err := a.warm.Print(h, "all")
	tr.end(s)
	if err != nil {
		rec.fail("warm render: %v", err)
		return
	}
	a.check(rec, "warm render", h)
}

func (a *artifactsInstance) extras(*recorder) (map[string]metric, error) {
	out := map[string]metric{}
	if a.warm != nil {
		out["experiments.sim_runs"] = metric{Value: float64(a.warm.SimRuns()), Unit: "count", Better: "equal"}
	}
	return out, nil
}
