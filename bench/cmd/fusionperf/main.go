// Command fusionperf is the repository's benchmark: four workloads over the
// simulator, the artifact pipeline and fusiond, each measured for a fixed
// time, with correctness checked on every operation.
//
// Usage (from the bench directory, or through bench/run.sh from the
// repository root):
//
//	fusionperf -workload fusion-cells -seed 1 -seconds 20 -trace 0
//	fusionperf -workload all -seed 1 -runs 5 -out results.json -set seed1
//	fusionperf -workload all -trace 1 -out results.json
//	fusionperf -compare [-benchmark BENCHMARK.json] OLD.json NEW.json
//
// A single-workload run prints a summary on stderr and, as the last line
// of stdout, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Untraced runs (-trace 0) report the end-to-end metrics;
// traced runs (-trace 1) report the per-layer metrics. -workload all (or
// -runs above 1) runs each workload in its own child process, one at a
// time. -out appends the runs, with the host stamp, to a results file that
// -compare reads. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// allWorkloads lists the workloads in run order.
func allWorkloads() []workload {
	return []workload{artifactsWorkload(), fusionCells(), scratchCells(), fusiondWorkload()}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: the random programs and the fusiond request stream")
		seconds = flag.Float64("seconds", 20, "measuring time of one run, in seconds")
		trace   = flag.Int("trace", 0, "1 for a traced run reporting per-layer metrics, 0 for end-to-end metrics")
		runs    = flag.Int("runs", 1, "runs of each selected workload")
		out     = flag.String("out", "", "append the runs as one set to this results file")
		set     = flag.String("set", "", "name of the set -out appends (default seed<N>, with -trace for traced runs)")
		cmp     = flag.Bool("compare", false, "compare two results files given as the arguments OLD NEW")
		bench   = flag.String("benchmark", "BENCHMARK.json", "the BENCHMARK.json whose bounds -compare applies")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatalf("usage: fusionperf -compare [-benchmark BENCHMARK.json] OLD NEW")
		}
		if err := runCompare(flag.Arg(0), flag.Arg(1), *bench); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if flag.NArg() != 0 || *trace < 0 || *trace > 1 || *runs < 1 || *seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, benchtime: "100ms", setupTime: defaultSetupTime}
	var selected []workload
	for _, w := range allWorkloads() {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatalf("unknown workload %q (valid: %s, all)", *name, strings.Join(workloadNames(), ", "))
	}
	setName := *set
	if setName == "" {
		setName = "seed" + strconv.FormatInt(o.seed, 10)
		if o.trace {
			setName += "-trace"
		}
	}

	var results []*runResult
	if len(selected) == 1 && *runs == 1 {
		res, err := run(selected[0], o)
		if err != nil {
			fatalf("%v", err)
		}
		printSummary(res)
		results = []*runResult{res}
	} else {
		var err error
		if results, err = runChildren(selected, o, *runs); err != nil {
			fatalf("%v", err)
		}
	}
	if *out != "" {
		s := resultSet{Name: setName, Seed: o.seed, Trace: o.trace, Seconds: o.seconds,
			Stamp: newStamp(), Params: currentParams(), Runs: results}
		if err := appendSet(*out, s); err != nil {
			fatalf("%v", err)
		}
	}
	if err := printLastLine(os.Stdout, results); err != nil {
		fatalf("%v", err)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads() {
		out = append(out, w.name)
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fusionperf: "+format+"\n", args...)
	os.Exit(1)
}

// runChildren runs each selected workload, runs times, in a child process
// of its own, one at a time, and collects their results.
func runChildren(selected []workload, o options, runs int) ([]*runResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "fusionperf-runs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var out []*runResult
	for i := 0; i < runs; i++ {
		for _, w := range selected {
			path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.name, i))
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(boolInt(o.trace)),
				"-out", path, "-set", "child")
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return nil, fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			f, err := readResults(path)
			if err != nil {
				return nil, err
			}
			if len(f.Sets) != 1 || len(f.Sets[0].Runs) != 1 {
				return nil, fmt.Errorf("%s: child wrote %d sets", path, len(f.Sets))
			}
			out = append(out, f.Sets[0].Runs[0])
		}
	}
	return out, nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// printSummary writes a run's metrics, one per line with unit and sample
// count, to stderr.
func printSummary(r *runResult) {
	mode := "end-to-end"
	if r.Trace {
		mode = "per-layer"
	}
	fmt.Fprintf(os.Stderr, "== %s seed %d (%s): correct=%v attempted=%d failed=%d passes=%d\n",
		r.Workload, r.Seed, mode, r.Correct, r.Attempted, r.Failed, r.Passes)
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "   FAILED: %s\n", f)
	}
	if len(r.PassWallS) > 0 {
		fmt.Fprintf(os.Stderr, "   pass wall (s): %.4g\n   host factors: %.3g\n", r.PassWallS, r.HostFactors)
	}
	for _, group := range []map[string]metric{r.Metrics, r.Extra} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group[n]
			fmt.Fprintf(os.Stderr, "   %-36s %14.6g %-9s", n, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(os.Stderr, " n=%d", m.N)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
}

// printLastLine prints the result line. With one run its metrics are the
// run's; with several, each is the median over the runs of its workload,
// named "<workload>.<metric>".
func printLastLine(w io.Writer, results []*runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	byName := map[string][]float64{}
	units := map[string]string{}
	for _, r := range results {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for n, m := range r.Metrics {
			if len(results) > 1 {
				n = r.Workload + "." + n
			}
			byName[n] = append(byName[n], m.Value)
			units[n] = m.Unit
		}
	}
	for n, vs := range byName {
		line.Metrics[n] = value{Value: median(vs), Unit: units[n]}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func runCompare(oldPath, newPath, benchPath string) error {
	bounds, err := benchmarkBounds(benchPath)
	if err != nil {
		return err
	}
	oldF, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newF, err := readResults(newPath)
	if err != nil {
		return err
	}
	return compare(os.Stdout, oldF, newF, bounds)
}
