// Package hotstatsclean interns its counters at construction and only
// bumps handles on the hot path, the discipline hotmap enforces for
// stats.Set.
package hotstatsclean

import "fusion/internal/stats"

type ctrl struct {
	st     *stats.Set
	cTicks *stats.Counter
	cMsgs  *stats.Counter
}

// newCtrl resolves every hot counter once; stats.Set calls are fine in
// construction code.
func newCtrl(st *stats.Set) *ctrl {
	st.Counter("ctrl.built").Inc()
	return &ctrl{st: st, cTicks: st.Counter("ctrl.ticks"), cMsgs: st.Counter("ctrl.msgs")}
}

// Tick bumps interned handles only.
func (c *ctrl) Tick(now uint64) {
	c.cTicks.Inc()
	c.cTicks.Add(2)
}

// Deliver likewise, including inside its closure.
func (c *ctrl) Deliver(m int) {
	fire := func() { c.cMsgs.Inc() }
	fire()
}

// report is cold (invoked once at exit); reading by name is fine here.
func (c *ctrl) report() int64 { return c.st.Get("ctrl.ticks") }
