// Package stats provides the counter registry every simulated component
// reports into. Counters are named hierarchically ("l1x.read.hit") and kept
// in insertion order so dumps are deterministic.
//
// Components count through handles: each interns a *Counter once at
// construction (Set.Counter) and increments through the pointer, with no
// map hashing per event. The Set's by-name view of the same cells (Get,
// Names, ForEach, Dump) serves dumps, digests and tests.
package stats

import (
	"fmt"
	"io"
	"sort"
)

// Counter is a single interned counter cell. Handles stay valid for the
// lifetime of the Set that interned them; incrementing through a handle is
// a plain pointer write with no map hashing and no allocation.
type Counter struct {
	v int64
}

// Add increments the counter by v.
func (c *Counter) Add(v int64) { c.v += v }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v++ }

// Set overwrites the counter with v (gauge semantics).
func (c *Counter) Set(v int64) { c.v = v }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Set is an ordered collection of named int64 counters.
type Set struct {
	order []string
	vals  map[string]*Counter
}

// NewSet returns an empty counter set.
func NewSet() *Set {
	return &Set{vals: make(map[string]*Counter)}
}

// Counter interns name and returns its handle, creating the counter (at
// zero) if needed. A nil receiver returns a private throwaway cell, so
// components built without a stats set can still resolve handles at
// construction and increment unconditionally on the hot path. Each nil-set
// call returns a distinct cell: sharing one global sink would be a data
// race across the parallel sweep's engines.
func (s *Set) Counter(name string) *Counter {
	if s == nil {
		return new(Counter)
	}
	c, ok := s.vals[name]
	if !ok {
		c = new(Counter)
		s.vals[name] = c
		s.order = append(s.order, name)
	}
	return c
}

// Get returns the value of counter name (zero if absent).
func (s *Set) Get(name string) int64 {
	if c, ok := s.vals[name]; ok {
		return c.v
	}
	return 0
}

// Names returns the counter names in insertion order. The slice is a copy;
// prefer ForEach where the caller only iterates.
func (s *Set) Names() []string {
	return append([]string(nil), s.order...)
}

// ForEach calls fn for every counter in insertion order without copying the
// name slice. fn must not mutate the set.
func (s *Set) ForEach(fn func(name string, v int64)) {
	for _, n := range s.order {
		fn(n, s.vals[n].v)
	}
}

// Dump writes "name value" lines, sorted by name, to w.
func (s *Set) Dump(w io.Writer) {
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-48s %12d\n", n, s.vals[n].v)
	}
}
