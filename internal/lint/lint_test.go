package lint

// Fixture-driven analyzer tests. Each analyzer has a bad fixture under
// testdata/ whose `// want "substr"` comments pin the expected findings to
// exact file:line positions, and a clean fixture that must pass silently.
// The waiver fixture exercises //lint:ordered suppression (inline and
// own-line) plus the reasonless-waiver diagnostic.

import (
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	fixOnce sync.Once
	fixMod  *Module
	fixLdr  *Loader
	fixErr  error
)

// fixture loads testdata/<dir> through a shared loader (the type-checked
// stdlib is memoized across fixtures, so the suite pays its cost once).
func fixture(t *testing.T, dir string) *Package {
	t.Helper()
	fixOnce.Do(func() {
		fixMod, fixErr = FindModule(".")
		if fixErr == nil {
			fixLdr = NewLoader(fixMod)
		}
	})
	if fixErr != nil {
		t.Fatalf("finding module: %v", fixErr)
	}
	pkg, err := fixLdr.Load(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture %s has a type error: %v", dir, e)
	}
	return pkg
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// expectation is one `// want "substr"` comment: a finding must exist at
// file:line whose message contains substr.
type expectation struct {
	file   string
	line   int
	substr string
}

func wantsOf(pkg *Package) []expectation {
	var out []expectation
	files := make([]string, 0, len(pkg.Sources))
	for f := range pkg.Sources {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for i, line := range strings.Split(string(pkg.Sources[f]), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				out = append(out, expectation{f, i + 1, m[1]})
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over one fixture and matches findings
// against the fixture's want comments, both ways: every want must be hit,
// and every finding must be wanted.
func checkFixture(t *testing.T, an *Analyzer, dir string) {
	t.Helper()
	pkg := fixture(t, dir)
	got := RunAnalyzer(an, pkg, fixMod)
	used := make([]bool, len(got))

	for _, w := range wantsOf(pkg) {
		found := false
		for i, f := range got {
			if !used[i] && f.Pos.Filename == w.file && f.Pos.Line == w.line &&
				strings.Contains(f.Message, w.substr) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: want a [%s] finding containing %q, got none",
				w.file, w.line, an.Name, w.substr)
		}
	}
	for i, f := range got {
		if !used[i] {
			t.Errorf("unexpected finding: %s", f.String(""))
		}
	}
}

func TestMapOrderDetects(t *testing.T)   { checkFixture(t, MapOrder, "maporder_bad") }
func TestMapOrderClean(t *testing.T)     { checkFixture(t, MapOrder, "maporder_clean") }
func TestWallClockDetects(t *testing.T)  { checkFixture(t, WallClock, "wallclock_bad") }
func TestWallClockClean(t *testing.T)    { checkFixture(t, WallClock, "wallclock_clean") }
func TestGlobalRandDetects(t *testing.T) { checkFixture(t, GlobalRand, "globalrand_bad") }
func TestGlobalRandClean(t *testing.T)   { checkFixture(t, GlobalRand, "globalrand_clean") }
func TestRawPanicDetects(t *testing.T)   { checkFixture(t, RawPanic, "rawpanic_bad") }
func TestRawPanicClean(t *testing.T)     { checkFixture(t, RawPanic, "rawpanic_clean") }
func TestDroppedErrDetects(t *testing.T) { checkFixture(t, DroppedErr, "droppederr_bad") }
func TestDroppedErrClean(t *testing.T)   { checkFixture(t, DroppedErr, "droppederr_clean") }

// hotmap also reports stats.Set calls in hot bodies; these fixtures hold
// those cases apart from the map operations.
func TestHotStatsDetects(t *testing.T) { checkFixture(t, HotMap, "hotstats_bad") }
func TestHotStatsClean(t *testing.T)   { checkFixture(t, HotMap, "hotstats_clean") }
func TestHotMapDetects(t *testing.T)   { checkFixture(t, HotMap, "hotmap_bad") }
func TestHotMapClean(t *testing.T)     { checkFixture(t, HotMap, "hotmap_clean") }
func TestHotMapWaiver(t *testing.T)    { checkFixture(t, HotMap, "hotmap_waiver") }

// The v2 CFG/dataflow analyzers: detection, clean, and waiver fixtures
// each. Waiver fixtures pair justified suppressions (inline and own-line)
// with one unwaived violation that must still fire.
func TestPoolDisciplineDetects(t *testing.T) { checkFixture(t, PoolDiscipline, "pooldiscipline_bad") }
func TestPoolDisciplineClean(t *testing.T)   { checkFixture(t, PoolDiscipline, "pooldiscipline_clean") }
func TestPoolDisciplineWaiver(t *testing.T) {
	checkFixture(t, PoolDiscipline, "pooldiscipline_waiver")
}
func TestLockGuardDetects(t *testing.T)  { checkFixture(t, LockGuard, "lockguard_bad") }
func TestLockGuardClean(t *testing.T)    { checkFixture(t, LockGuard, "lockguard_clean") }
func TestLockGuardWaiver(t *testing.T)   { checkFixture(t, LockGuard, "lockguard_waiver") }
func TestEnumSwitchDetects(t *testing.T) { checkFixture(t, EnumSwitch, "enumswitch_bad") }
func TestEnumSwitchClean(t *testing.T)   { checkFixture(t, EnumSwitch, "enumswitch_clean") }
func TestEnumSwitchWaiver(t *testing.T)  { checkFixture(t, EnumSwitch, "enumswitch_waiver") }

// lineContaining returns the 1-based line of the first source line holding
// marker, failing the test if the marker is absent.
func lineContaining(t *testing.T, pkg *Package, marker string) (string, int) {
	t.Helper()
	files := make([]string, 0, len(pkg.Sources))
	for f := range pkg.Sources {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		for i, line := range strings.Split(string(pkg.Sources[f]), "\n") {
			if strings.Contains(line, marker) {
				return f, i + 1
			}
		}
	}
	t.Fatalf("marker %q not found in fixture", marker)
	return "", 0
}

// TestOrderedWaiver checks the //lint:ordered waiver semantics: a justified
// waiver (inline or on its own line) suppresses the maporder finding, while
// a reasonless one suppresses nothing and is reported itself.
func TestOrderedWaiver(t *testing.T) {
	pkg := fixture(t, "maporder_waiver")
	got := RunAnalyzer(MapOrder, pkg, fixMod)

	badFile, badLine := lineContaining(t, pkg, "range m3")
	wantMsgs := map[string]bool{
		"order-dependent body":    false, // the unjustified range is still reported
		"missing a justification": false, // and so is the empty waiver
	}
	for _, f := range got {
		if f.Pos.Filename != badFile || f.Pos.Line != badLine {
			t.Errorf("finding outside the unjustified range (waiver failed to suppress): %s",
				f.String(""))
			continue
		}
		matched := false
		for sub := range wantMsgs {
			if strings.Contains(f.Message, sub) {
				wantMsgs[sub] = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding at the unjustified range: %s", f.String(""))
		}
	}
	for _, sub := range []string{"order-dependent body", "missing a justification"} {
		if !wantMsgs[sub] {
			t.Errorf("%s:%d: want a finding containing %q, got none", badFile, badLine, sub)
		}
	}
}

// TestAnalyzerRoster pins the suite: exactly these nine rules, each with
// a waiver directive and a scope.
func TestAnalyzerRoster(t *testing.T) {
	want := []string{
		"droppederr", "enumswitch", "globalrand", "hotmap",
		"lockguard", "maporder", "pooldiscipline", "rawpanic", "wallclock",
	}
	var got []string
	for _, an := range Analyzers() {
		got = append(got, an.Name)
		if an.Directive == "" || an.Scope == nil || an.Run == nil {
			t.Errorf("analyzer %s is missing a directive, scope, or run function", an.Name)
		}
	}
	sort.Strings(got)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("analyzer roster = %v, want %v", got, want)
	}
}
