package main

import (
	"strings"
	"testing"
)

func TestGate(t *testing.T) {
	base := map[string]float64{"m/a": 80, "m/b": 50}
	cases := []struct {
		name   string
		got    map[string]float64
		base   map[string]float64
		failed int
		line   string // a line the report must contain
	}{
		{"unchanged", map[string]float64{"m/a": 80, "m/b": 50}, base, 0,
			"ok    m/a"},
		{"drop within maxdrop", map[string]float64{"m/a": 78.5, "m/b": 50}, base, 0,
			"ok    m/a"},
		{"drop beyond maxdrop", map[string]float64{"m/a": 77.9, "m/b": 50}, base, 1,
			"FAIL  m/a"},
		{"new package", map[string]float64{"m/a": 80, "m/b": 50, "m/c": 10}, base, 0,
			"NEW   m/c"},
		{"stale row", map[string]float64{"m/a": 80, "m/b": 50},
			map[string]float64{"m/a": 80, "m/b": 50, "m/gone": 100}, 1,
			"STALE m/gone"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			if failed := gate(&out, c.got, c.base, 2); failed != c.failed {
				t.Errorf("gate failed %d row(s), want %d:\n%s", failed, c.failed, out.String())
			}
			if !strings.Contains(out.String(), c.line) {
				t.Errorf("report lacks %q:\n%s", c.line, out.String())
			}
		})
	}
}
