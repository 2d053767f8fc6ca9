package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"fusion/internal/workloads"
)

// resultsFile is what -out writes: named sets of runs, each stamped with
// the host and commit it ran on.
type resultsFile struct {
	Sets []resultSet `json:"sets"`
}

type resultSet struct {
	Name    string       `json:"name"`
	Seed    int64        `json:"seed"`
	Trace   bool         `json:"trace"`
	Seconds float64      `json:"seconds"`
	Stamp   stamp        `json:"stamp"`
	Params  params       `json:"params"`
	Runs    []*runResult `json:"runs"`
}

type stamp struct {
	Date       string `json:"date"`
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
}

// params records the benchmark's fixed inputs besides the seed.
type params struct {
	SetupRepeats   int                    `json:"setup_repeats"`
	RandomPrograms int                    `json:"random_programs"`
	RandomParams   workloads.RandomParams `json:"random_params"`
	FusiondClients int                    `json:"fusiond_clients"`
	FusiondWorkers int                    `json:"fusiond_workers"`
	RoundRequests  int                    `json:"fusiond_round_requests"`
	Grid           [2]int                 `json:"fusiond_grid"`
	ZipfS          float64                `json:"fusiond_zipf_s"`
}

func currentParams() params {
	return params{
		SetupRepeats: setupRepeats, RandomPrograms: randomPrograms, RandomParams: randomParams,
		FusiondClients: fusiondClients, FusiondWorkers: fusiondWorkers,
		RoundRequests: defaultRoundRequests, Grid: [2]int{gridMin, gridMax}, ZipfS: zipfS,
	}
}

// newStamp describes this host and the git commit of the working
// directory ("unknown" outside a git checkout).
func newStamp() stamp {
	host, _ := os.Hostname()
	s := stamp{
		Date: time.Now().UTC().Format(time.RFC3339), Host: host,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		s.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			s.Dirty = len(st) > 0
		}
	}
	return s
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendSet adds set to the results file at path, creating the file if
// needed. Set names are unique within a file.
func appendSet(path string, set resultSet) error {
	f, err := readResults(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &resultsFile{}, nil
	}
	if err != nil {
		return err
	}
	for _, s := range f.Sets {
		if s.Name == set.Name {
			return fmt.Errorf("%s already has a set named %q", path, set.Name)
		}
	}
	f.Sets = append(f.Sets, set)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// series is one metric's values over the runs of one workload, with the
// seed of each run.
type series struct {
	unit, better string
	values       []float64
	seeds        []int64
}

// collect groups the runs of a results file by "workload" (untraced) or
// "workload (trace)" and metric name.
func collect(f *resultsFile) map[string]map[string]*series {
	out := map[string]map[string]*series{}
	for _, set := range f.Sets {
		for _, r := range set.Runs {
			key := r.Workload
			if r.Trace {
				key += " (trace)"
			}
			if out[key] == nil {
				out[key] = map[string]*series{}
			}
			for _, ms := range []map[string]metric{r.Metrics, r.Extra} {
				for name, m := range ms {
					s := out[key][name]
					if s == nil {
						s = &series{unit: m.Unit, better: m.Better}
						out[key][name] = s
					}
					s.values = append(s.values, m.Value)
					s.seeds = append(s.seeds, r.Seed)
				}
			}
		}
	}
	return out
}

// benchmarkBounds reads the end-to-end regression bounds of BENCHMARK.json.
func benchmarkBounds(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bj struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range bj.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}

// compare writes one row per metric and workload present in both files,
// labelled by the noise-aware rule of classify.
func compare(w io.Writer, oldF, newF *resultsFile, bounds map[string]float64) error {
	olds, news := collect(oldF), collect(newF)
	var keys []string
	for k := range olds {
		if news[k] != nil {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return errors.New("the two files share no workload")
	}
	sort.Strings(keys)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tdelta\tlabel")
	for _, k := range keys {
		var names []string
		for n := range olds[k] {
			if news[k][n] != nil {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			o, nw := olds[k][n], news[k][n]
			bound, hasBound := bounds[n]
			if strings.HasSuffix(k, " (trace)") {
				hasBound = false
			}
			label := classify(o.values, nw.values, o.better, bound, hasBound)
			if o.better == "equal" {
				label = sameCounts(o, nw)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", k, n, o.unit, describe(o.values), describe(nw.values),
				delta(median(o.values), median(nw.values)), label)
		}
	}
	return tw.Flush()
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}

func delta(o, n float64) string {
	if o == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/math.Abs(o))
}

// classify labels NEW against OLD (choosing-metrics sections 6 and 8):
//
//   - improved: NEW is better in at least 9 of 10 paired runs (run i of
//     each file; ties count for neither) and the medians differ by more
//     than OLD's interquartile range;
//   - unresolved: the metric has a bound, OLD's relative spread exceeds
//     it, and not every NEW run is better than every OLD run;
//   - regressed: NEW's median is worse than OLD's by more than the bound
//     or, for a metric without one, NEW loses 9 of 10 pairs by more than
//     OLD's interquartile range;
//   - unchanged: otherwise.
func classify(old, nw []float64, better string, bound float64, hasBound bool) string {
	sign := 1.0 // lower is better
	if better == "higher" {
		sign = -1
	}
	isBetter := func(a, b float64) bool { return sign*(a-b) < 0 }
	pairs := min(len(old), len(nw))
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case isBetter(nw[i], old[i]):
			wins++
		case isBetter(old[i], nw[i]):
			losses++
		}
	}
	mo, mn := median(old), median(nw)
	q1, q3 := quartiles(old)
	beyondIQR := math.Abs(mn-mo) > q3-q1
	if wins*10 >= pairs*9 && beyondIQR && isBetter(mn, mo) {
		return "improved"
	}
	if hasBound {
		allBetter := true
		for _, n := range nw {
			for _, o := range old {
				allBetter = allBetter && isBetter(n, o)
			}
		}
		if relSpread(old) > bound && !allBetter {
			return "unresolved"
		}
		if mo != 0 && sign*(mn-mo)/math.Abs(mo) > bound {
			return "regressed"
		}
		return "unchanged"
	}
	if losses*10 >= pairs*9 && beyondIQR && isBetter(mo, mn) {
		return "regressed"
	}
	return "unchanged"
}

// sameCounts labels a simulated count, which a speed-only change must leave
// identical. Runs are compared seed by seed: any difference is a
// regression; with no seed in common, or an OLD file that disagrees with
// itself, nothing can be said.
func sameCounts(old, nw *series) string {
	want := map[int64]float64{}
	for i, seed := range old.seeds {
		if v, ok := want[seed]; ok && v != old.values[i] {
			return "unresolved"
		}
		want[seed] = old.values[i]
	}
	label := "unresolved"
	for i, seed := range nw.seeds {
		v, ok := want[seed]
		if !ok {
			continue
		}
		if nw.values[i] != v {
			return "regressed"
		}
		label = "unchanged"
	}
	return label
}
