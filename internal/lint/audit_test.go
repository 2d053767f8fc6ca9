package lint

// Tests for the -waivers audit.

import (
	"strings"
	"testing"
)

// TestWaiverAudit inventories the waiveraudit fixture: known directives
// resolve to analyzer names ("ordered" to maporder), reasonless waivers
// surface with an empty reason, and typo'd directives are labeled unknown.
func TestWaiverAudit(t *testing.T) {
	pkg := fixture(t, "waiveraudit")
	records := AuditWaivers(Analyzers(), []*Package{pkg}, "")
	if len(records) != 4 {
		t.Fatalf("got %d waiver records, want 4: %+v", len(records), records)
	}
	for i := 1; i < len(records); i++ {
		if records[i-1].File > records[i].File ||
			(records[i-1].File == records[i].File && records[i-1].Line > records[i].Line) {
			t.Errorf("records not sorted by file,line: %+v", records)
		}
	}
	type key struct {
		analyzer  string
		hasReason bool
	}
	counts := map[key]int{}
	for _, r := range records {
		if !strings.HasSuffix(r.File, "audit.go") {
			t.Errorf("record file = %q, want .../audit.go", r.File)
		}
		counts[key{r.Analyzer, r.Reason != ""}]++
	}
	want := map[key]int{
		{"maporder", true}:       1, // //lint:ordered with a reason
		{"lockguard", true}:      1,
		{"maporder", false}:      1, // reasonless
		{"unknown:ordred", true}: 1, // typo'd directive
	}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("audit records for %+v = %d, want %d (all: %+v)", k, counts[k], n, records)
		}
	}
}
