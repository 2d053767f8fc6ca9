// Package hotstatsbad resolves counters by name from per-cycle entry
// points. A stats.Set call in a hot body is a map lookup too: the Set
// keeps its counters in a map keyed by name, where an interned
// *stats.Counter is a pointer dereference. hotmap reports these calls.
package hotstatsbad

import "fusion/internal/stats"

type ctrl struct {
	st *stats.Set
}

// Tick resolves counters by name once per simulated cycle.
func (c *ctrl) Tick(now uint64) {
	c.st.Counter("ctrl.lazy").Inc()  // want "stats.Set.Counter in hot function Tick"
	c.st.Counter("ctrl.work").Add(3) // want "stats.Set.Counter in hot function Tick"
}

// Deliver's closures run per event and are just as hot.
func (c *ctrl) Deliver(m int) {
	fire := func() {
		c.st.Counter("ctrl.msgs").Inc() // want "stats.Set.Counter in hot function Deliver"
	}
	fire()
}
