package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"fusion/bench/layers"
)

// options are one run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	// benchtime is the layer microbenchmarks' testing -benchtime.
	benchtime string
	// setupTime is the least time an untraced run spends setting up.
	setupTime time.Duration
	// uncalibrated skips host-speed scaling (see hostClock): the harness
	// tests check what a run reports, not how fast it ran.
	uncalibrated bool
}

// A run sets its workload up at least setupRepeats times and for at least
// defaultSetupTime, so a set-up of a few milliseconds is sampled as often
// as a slow one is; setup_s is the median.
const (
	setupRepeats     = 9
	defaultSetupTime = time.Second
)

// workload is one benchmark workload: a fixed unit of work (a pass) that a
// run repeats for its measuring time.
type workload struct {
	name string
	// minPasses is the fewest passes a run makes, however long they take.
	minPasses int
	// opClasses are the operation classes op_ms_p50 is taken over.
	opClasses []string
	// setup builds the inputs (or starts the service) for a run. tr is nil
	// in untraced runs; setup's spans go under parent.
	setup func(o options, tr *tracer, parent int) (instance, error)
}

// instance is a set-up workload.
type instance interface {
	// more reports whether pass i exists (a workload may run out of input).
	more(i int) bool
	// pass runs one pass, recording every operation, and every failed or
	// wrong one, into p.rec.
	pass(p *passCtx)
	// extras returns the workload's own metrics for the run so far.
	extras(rec *recorder) (map[string]metric, error)
	close() error
}

// afterTracer is implemented by an instance that takes one more traced
// measurement after its traced pass.
type afterTracer interface {
	afterTrace(tr *tracer, rec *recorder)
}

// passCtx is what one pass records into.
type passCtx struct {
	index int
	rec   *recorder
	tr    *tracer // nil when untraced
	span  int     // the pass's span

	// An untraced pass is timed in segments, each scaled by the host speed
	// measured at its two ends (see split); clk is nil in traced passes.
	clk      *hostClock
	segStart time.Time     // start of the current segment
	wall     time.Duration // wall time of the ended segments
	scaled   float64       // scaled seconds of the ended segments
	// calBytes and calMallocs are what the calibrations between segments
	// allocated, which the pass's allocation metrics leave out.
	calBytes, calMallocs uint64
}

func newPassCtx(index int, rec *recorder, clk *hostClock) *passCtx {
	return &passCtx{index: index, rec: rec, clk: clk, segStart: time.Now()}
}

// minSegment is the shortest segment split ends. The host's speed drifts
// over seconds, and a host-speed measurement takes about a tenth of a
// second and cools the caches, so segments are about as long as a
// scratch-cells pass, whose factor the measurements at its two ends
// already estimate well.
const minSegment = time.Second

// split ends the current segment if it has run for minSegment. A pass of
// several seconds calls it between operations, so each part of the pass is
// scaled by the host speed around that part rather than by the speed at
// the pass's ends. It does nothing in a traced pass.
func (p *passCtx) split() {
	if p.clk != nil && time.Since(p.segStart) >= minSegment {
		p.endSegment()
	}
}

// endSegment measures the host speed, scales the segment that just ended
// by it, and starts the next segment once the measurement is done.
func (p *passCtx) endSegment() {
	d := time.Since(p.segStart)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f := p.clk.next()
	runtime.ReadMemStats(&m1)
	p.calBytes += m1.TotalAlloc - m0.TotalAlloc
	p.calMallocs += m1.Mallocs - m0.Mallocs
	p.wall += d
	p.scaled += f * d.Seconds()
	p.segStart = time.Now()
}

// elapsed is the pass's wall time so far, without its calibrations.
func (p *passCtx) elapsed() time.Duration { return p.wall + time.Since(p.segStart) }

// recorder collects a run's operations and failures. It is safe for
// concurrent use (fusiond-mixed records from several clients). Times are
// kept unscaled with the pass they fell in, and scaled by that pass's
// host-speed factor (see hostClock) when read.
type recorder struct {
	mu        sync.Mutex
	pass      int                 //guard: mu — the pass being recorded
	factors   []float64           //guard: mu — each finished pass's host-speed factor
	ops       map[string][]timing //guard: mu — latencies by operation class
	simCycles float64             //guard: mu
	simSec    []float64           //guard: mu — seconds spent simulating, per pass
	attempted int                 //guard: mu
	failed    int                 //guard: mu
	failures  []string            //guard: mu — the first few, for the report
}

// timing is one latency and the pass it fell in.
type timing struct {
	ms   float64
	pass int
}

func newRecorder() *recorder {
	return &recorder{ops: map[string][]timing{}}
}

// beginPass starts recording pass i.
func (r *recorder) beginPass(i int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pass = i
	for len(r.simSec) <= i {
		r.simSec = append(r.simSec, 0)
	}
}

// endPass records the finished pass's host-speed factor. Passes end in
// order, so factors[i] belongs to pass i.
func (r *recorder) endPass(f float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factors = append(r.factors, f)
}

// factorOf returns pass p's factor from factors, 1 for a pass not ended.
func factorOf(factors []float64, p int) float64 {
	if p < len(factors) {
		return factors[p]
	}
	return 1
}

// op records one attempted operation of class and its latency.
func (r *recorder) op(class string, d time.Duration) {
	r.sample(class, d)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
}

// sample records a latency of class that is not an operation of its own,
// such as the server-side time of a client's request.
func (r *recorder) sample(class string, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops[class] = append(r.ops[class], timing{ms: float64(d.Nanoseconds()) / 1e6, pass: r.pass})
}

// fail records that an attempted operation failed or produced a wrong
// result.
func (r *recorder) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// simulated records a simulation of cycles that took d.
func (r *recorder) simulated(cycles uint64, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.simCycles += float64(cycles)
	r.simSec[r.pass] += d.Seconds()
}

// simRate adds the simulated Mcycles per (scaled) host second to out, if
// anything was simulated.
func (r *recorder) simRate(out map[string]metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var sec float64
	for p, s := range r.simSec {
		sec += s * factorOf(r.factors, p)
	}
	if sec > 0 {
		out["sim_mcycles_per_s"] = metric{Value: r.simCycles / sec / 1e6, Unit: "Mcycles/s", Better: "higher"}
	}
}

// latencies returns the scaled latencies of the given classes, in ms.
func (r *recorder) latencies(classes ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, c := range classes {
		for _, t := range r.ops[c] {
			out = append(out, t.ms*factorOf(r.factors, t.pass))
		}
	}
	return out
}

// metric is one reported number. Better is "lower", "higher", or "equal"
// for a simulated count a speed-only change must leave unchanged; N is the
// sample count behind a median or percentile.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	N      int     `json:"n,omitempty"`
}

// runResult is everything one run measured.
type runResult struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	Passes    int      `json:"passes"`
	// PassWallS and HostFactors are each pass's unscaled wall time and the
	// host-speed factor it was scaled by.
	PassWallS   []float64         `json:"pass_wall_s,omitempty"`
	HostFactors []float64         `json:"host_factors,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Extra       map[string]metric `json:"extra,omitempty"`
}

// run measures workload w once, traced or not.
func run(w workload, o options) (*runResult, error) {
	if o.trace {
		return runTraced(w, o)
	}
	return runUntraced(w, o)
}

func runUntraced(w workload, o options) (res *runResult, err error) {
	clk := newHostClock(o.uncalibrated)
	var setups []float64
	var inst instance
	for start := time.Now(); len(setups) < setupRepeats || time.Since(start) < o.setupTime; {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		if inst, err = w.setup(o, nil, 0); err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer closeInto(inst, &err)
	setupF := clk.next()

	rec := newRecorder()
	var passS, wallS, allocMB, allocsM []float64
	start := time.Now()
	for i := 0; inst.more(i); i++ {
		rec.beginPass(i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		p := newPassCtx(i, rec, clk)
		inst.pass(p)
		p.endSegment()
		dt := time.Since(t0)
		runtime.ReadMemStats(&m1)
		// The pass's factor is its segments' scaled time over their wall
		// time, which also scales the latencies recorded during the pass.
		rec.endPass(p.scaled / p.wall.Seconds())
		passS = append(passS, p.scaled)
		wallS = append(wallS, p.wall.Seconds())
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc-p.calBytes)/(1<<20))
		allocsM = append(allocsM, float64(m1.Mallocs-m0.Mallocs-p.calMallocs)/1e6)
		if i+1 >= w.minPasses && time.Since(start)+dt > time.Duration(o.seconds*float64(time.Second)) {
			break
		}
	}
	extra, err := inst.extras(rec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res = newResult(w, o, rec, wallS)
	res.Extra = extra
	res.Extra["pass_wall_s"] = metric{Value: median(wallS), Unit: "s", Better: "lower", N: len(wallS)}
	ops := rec.latencies(w.opClasses...)
	p50, _ := percentile(ops, 50)
	res.Metrics = map[string]metric{
		"setup_s":    {Value: setupF * median(setups), Unit: "s", N: len(setups)},
		"pass_s":     {Value: median(passS), Unit: "s", N: len(passS)},
		"op_ms_p50":  {Value: p50, Unit: "ms", N: len(ops)},
		"alloc_mb":   {Value: median(allocMB), Unit: "MB", N: len(allocMB)},
		"allocs_m":   {Value: median(allocsM), Unit: "M", N: len(allocsM)},
		"max_rss_mb": {Value: maxRSSMB(), Unit: "MB"},
	}
	for name, m := range res.Metrics {
		m.Better = "lower"
		res.Metrics[name] = m
	}
	return res, nil
}

// closeInto closes inst, reporting its error through *err unless an
// earlier error is already there.
func closeInto(inst instance, err *error) {
	if cerr := inst.close(); *err == nil && cerr != nil {
		*err = cerr
	}
}

// runTraced makes two untraced passes of w and then a traced one: spans
// around every layer call and a CPU profile folded by layer. It then runs
// the layer microbenchmarks. The traced pass's extra time over the second
// untraced one is the tracing overhead.
func runTraced(w workload, o options) (res *runResult, err error) {
	tr := newTracer()
	root := tr.begin("setup", 0)
	inst, err := w.setup(o, tr, root)
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("%s setup: %w", w.name, err)
	}
	defer closeInto(inst, &err)
	rec := newRecorder()
	clk := newHostClock(o.uncalibrated)

	// Pass 0 warms the process up; pass 1 is the untraced reference.
	var wallS []float64
	for i := 0; i < 2; i++ {
		rec.beginPass(i)
		t0 := time.Now()
		inst.pass(newPassCtx(i, rec, nil))
		wallS = append(wallS, time.Since(t0).Seconds())
		rec.endPass(clk.next())
	}

	rec.beginPass(2)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ps := tr.begin("pass", 0)
	t0 := time.Now()
	p := newPassCtx(2, rec, nil)
	p.tr, p.span = tr, ps
	inst.pass(p)
	wallS = append(wallS, time.Since(t0).Seconds())
	tr.end(ps)
	pprof.StopCPUProfile()
	f := clk.next()
	rec.endPass(f)
	if at, ok := inst.(afterTracer); ok {
		at.afterTrace(tr, rec)
	}
	shares, err := foldProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	micros, err := layers.Run(o.benchtime)
	if err != nil {
		return nil, err
	}
	fm := clk.next()
	extra, err := inst.extras(rec)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res = newResult(w, o, rec, wallS)
	overhead := f*wallS[2]/(res.HostFactors[1]*wallS[1]) - 1
	res.Metrics = map[string]metric{
		"trace_overhead_pct": {Value: 100 * overhead, Unit: "%", Better: "lower"},
	}
	for _, l := range cpuLayers {
		res.Metrics[l+".cpu_pct"] = metric{Value: shares[l], Unit: "%", Better: "lower"}
	}
	for _, m := range layers.All() {
		r := micros[m.Name]
		res.Metrics[m.Name] = metric{Value: fm * r.PerOp, Unit: m.Unit, Better: "lower"}
		res.Metrics[m.Name+".allocs"] = metric{Value: r.Allocs, Unit: "count", Better: "lower"}
	}
	spans := tr.snapshot()
	res.Extra = extra
	for name, st := range summarize(spans) {
		if isLayerSpan(name) {
			res.Extra[name+"_ms"] = metric{Value: f * st.SelfMS, Unit: "ms", Better: "lower", N: st.Count}
		}
	}
	if err := writeSpans(w.name, o.seed, spans); err != nil {
		return nil, err
	}
	return res, nil
}

// isLayerSpan reports whether a span wraps a call into a layer
// ("systems.run"), as opposed to the harness's own structure ("pass").
func isLayerSpan(name string) bool { return strings.Contains(name, ".") }

func newResult(w workload, o options, rec *recorder, wallS []float64) *runResult {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return &runResult{
		Workload:    w.name,
		Seed:        o.seed,
		Trace:       o.trace,
		Correct:     rec.failed == 0 && rec.attempted > 0,
		Attempted:   rec.attempted,
		Failed:      rec.failed,
		Failures:    append([]string(nil), rec.failures...),
		Passes:      len(wallS),
		PassWallS:   wallS,
		HostFactors: append([]float64(nil), rec.factors...),
	}
}

// maxRSSMB is the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// writeSpans writes a traced run's spans, in start order, to a JSON file in
// the temporary directory and names it on stderr.
func writeSpans(workload string, seed int64, spans []span) error {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	path := filepath.Join(os.TempDir(), fmt.Sprintf("fusionperf-spans-%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "fusionperf: %d spans written to %s\n", len(spans), path)
	return nil
}
