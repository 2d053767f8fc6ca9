// Command covergate turns a merged Go coverage profile into per-package
// statement-coverage percentages and gates them against a checked-in
// baseline:
//
//	go test -count=1 -coverprofile=cover.out ./...
//	covergate -profile cover.out -baseline COVERAGE_BASELINE          # gate
//	covergate -profile cover.out -baseline COVERAGE_BASELINE -write   # refresh
//
// The gate fails (exit 1) when any package's coverage drops more than
// -maxdrop percentage points below its baseline entry, or when a baseline
// row names a package the profile does not cover (a stale row gates
// nothing). Packages new since the baseline pass (and are reported) —
// refresh with -write after adding or deleting a package or deliberately
// changing coverage. Exit 2 on usage/parse errors.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

func main() {
	var (
		profile  = flag.String("profile", "cover.out", "merged coverage profile from go test -coverprofile")
		baseline = flag.String("baseline", "COVERAGE_BASELINE", "checked-in per-package baseline file")
		maxDrop  = flag.Float64("maxdrop", 2.0, "max tolerated drop in percentage points per package")
		write    = flag.Bool("write", false, "regenerate the baseline from the profile instead of gating")
	)
	flag.Parse()

	got, err := packageCoverage(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covergate: %v\n", err)
		os.Exit(2)
	}
	if len(got) == 0 {
		fmt.Fprintf(os.Stderr, "covergate: profile %s covers no packages\n", *profile)
		os.Exit(2)
	}

	if *write {
		if err := writeBaseline(*baseline, got); err != nil {
			fmt.Fprintf(os.Stderr, "covergate: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("covergate: wrote %d packages to %s\n", len(got), *baseline)
		return
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "covergate: %v\n", err)
		os.Exit(2)
	}

	if failed := gate(os.Stdout, got, base, *maxDrop); failed > 0 {
		fmt.Fprintf(os.Stderr, "covergate: %d package(s) regressed more than %.1f points "+
			"or have stale baseline rows\n", failed, *maxDrop)
		os.Exit(1)
	}
}

// gate reports every profiled package against its baseline row, then
// every baseline row the profile does not cover, one line each on w, and
// returns how many failed.
func gate(w io.Writer, got, base map[string]float64, maxDrop float64) int {
	failed := 0
	for _, p := range sortedKeys(got) {
		cur := got[p]
		want, known := base[p]
		switch {
		case !known:
			fmt.Fprintf(w, "NEW   %-40s %6.1f%% (not in baseline; refresh with -write)\n", p, cur)
		case cur+maxDrop < want:
			fmt.Fprintf(w, "FAIL  %-40s %6.1f%% (baseline %.1f%%, drop %.1f > %.1f points)\n",
				p, cur, want, want-cur, maxDrop)
			failed++
		default:
			fmt.Fprintf(w, "ok    %-40s %6.1f%% (baseline %.1f%%)\n", p, cur, want)
		}
	}
	for _, p := range sortedKeys(base) {
		if _, profiled := got[p]; !profiled {
			fmt.Fprintf(w, "STALE %-40s baseline %.1f%% names no profiled package; "+
				"delete the row or refresh with -write\n", p, base[p])
			failed++
		}
	}
	return failed
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// packageCoverage parses a coverage profile into package -> percent of
// statements covered. Profile lines are
// "pkg/file.go:sl.sc,el.ec numStmts hitCount".
func packageCoverage(profilePath string) (map[string]float64, error) {
	f, err := os.Open(profilePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	type tally struct{ total, covered int }
	acc := make(map[string]*tally)
	sc := bufio.NewScanner(f)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		colon := strings.LastIndex(line, ".go:")
		if colon < 0 {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", profilePath, ln, line)
		}
		pkg := path.Dir(line[:colon+3])
		fields := strings.Fields(line[colon+4:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: malformed profile line %q", profilePath, ln, line)
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad statement count: %v", profilePath, ln, err)
		}
		hits, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad hit count: %v", profilePath, ln, err)
		}
		t := acc[pkg]
		if t == nil {
			t = &tally{}
			acc[pkg] = t
		}
		t.total += stmts
		if hits > 0 {
			t.covered += stmts
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make(map[string]float64, len(acc))
	for _, p := range sortedKeys(acc) {
		t := acc[p]
		if t.total == 0 {
			continue
		}
		out[p] = 100 * float64(t.covered) / float64(t.total)
	}
	return out, nil
}

// readBaseline parses "package percent" lines.
func readBaseline(baselinePath string) (map[string]float64, error) {
	f, err := os.Open(baselinePath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	ln := 0
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"package percent\", got %q",
				baselinePath, ln, line)
		}
		pct, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: bad percent: %v", baselinePath, ln, err)
		}
		out[fields[0]] = pct
	}
	return out, sc.Err()
}

func writeBaseline(baselinePath string, got map[string]float64) error {
	var b strings.Builder
	b.WriteString("# Per-package statement coverage floor, maintained by cmd/covergate.\n")
	b.WriteString("# Refresh: go test -count=1 -coverprofile=cover.out ./... && go run ./cmd/covergate -profile cover.out -baseline COVERAGE_BASELINE -write\n")
	for _, p := range sortedKeys(got) {
		fmt.Fprintf(&b, "%s %.1f\n", p, got[p])
	}
	return os.WriteFile(baselinePath, []byte(b.String()), 0o644)
}
