package lint

// audit.go implements the waiver audit that makes suppression debt
// reviewable (`fusionlint -waivers`).

import (
	"path/filepath"
	"sort"
	"strings"
)

// relTo makes file relative to dir with forward slashes; outside dir the
// absolute path is kept.
func relTo(dir, file string) string {
	if dir != "" {
		if rel, err := filepath.Rel(dir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
	}
	return filepath.ToSlash(file)
}

// WaiverRecord is one //lint: suppression in the tree, as reported by the
// -waivers audit: where it is, which analyzer it silences, and why.
type WaiverRecord struct {
	File     string
	Line     int
	Analyzer string
	Reason   string
}

// AuditWaivers collects every //lint: directive across pkgs, resolving
// directives to analyzer names (a directive matching no analyzer is kept,
// labeled "unknown:<directive>", so typos surface in the report). Output
// is sorted by file, line.
func AuditWaivers(analyzers []*Analyzer, pkgs []*Package, dir string) []WaiverRecord {
	byDirective := map[string]string{}
	for _, an := range analyzers {
		byDirective[an.Directive] = an.Name
	}
	var out []WaiverRecord
	for _, pkg := range pkgs {
		for _, w := range collectWaivers(pkg) {
			name, ok := byDirective[w.directive]
			if !ok {
				name = "unknown:" + w.directive
			}
			pos := pkg.Fset.Position(w.pos)
			out = append(out, WaiverRecord{
				File:     relTo(dir, pos.Filename),
				Line:     pos.Line,
				Analyzer: name,
				Reason:   w.reason,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return out
}
