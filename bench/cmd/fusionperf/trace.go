package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function it calls (or, for fusiond-mixed, by a middleware around
// the service's ServeHTTP). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: begin returns 0 and end does nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span //guard: mu
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span named name under parent (0: a root) and returns its
// id, which is never 0.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count  int
	SelfMS float64
}

// summarize aggregates spans by name. A span's self time is its duration
// minus the part of its interval covered by its children; children that
// overlap each other (concurrent requests under one pass) are counted once.
func summarize(spans []span) map[string]*spanStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*spanStat)
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Count++
		st.SelfMS += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union of
// the child intervals covers.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curStart, curEnd := int64(0), int64(-1)
	flush := func() {
		if curEnd > curStart {
			total += curEnd - curStart
		}
	}
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			flush()
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	flush()
	return total
}
