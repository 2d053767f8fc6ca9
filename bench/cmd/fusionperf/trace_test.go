package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	const ms = 1e6
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a.call", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "a.call", Start: 30 * ms, End: 60 * ms}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "b.call", Start: 15 * ms, End: 20 * ms},
		{ID: 5, Parent: 1, Name: "c.call", Start: 90 * ms, End: 120 * ms}, // outlives its parent
	}
	want := map[string]spanStat{
		"pass":   {Count: 1, SelfMS: 40}, // children cover [10,60] and [90,100]
		"a.call": {Count: 2, SelfMS: 55},
		"b.call": {Count: 1, SelfMS: 5},
		"c.call": {Count: 1, SelfMS: 30},
	}
	got := summarize(spans)
	for name, w := range want {
		g := got[name]
		if g == nil || g.Count != w.Count || math.Abs(g.SelfMS-w.SelfMS) > 1e-9 {
			t.Errorf("%s = %+v, want %+v", name, g, w)
		}
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	var off *tracer
	if id := off.begin("x", 0); id != 0 || off.snapshot() != nil {
		t.Fatal("a nil tracer recorded a span")
	}
	off.end(0)

	tr := newTracer()
	root := tr.begin("pass", 0)
	child := tr.begin("systems.run", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}
