// Job-execution bodies using interned handles only, plus a cold free
// function where resolving counters by name remains fine.
package hotstatsclean

import "fusion/internal/stats"

type sched struct {
	cRan *stats.Counter
}

func (s *sched) worker()  { s.cRan.Inc() }
func (s *sched) safeRun() { s.cRan.Inc() }

// BuildCell bumps a handle only.
func BuildCell(c *stats.Counter) { c.Inc() }

// setup is a cold free function: stats.Set calls are fine here.
func setup(st *stats.Set) *sched {
	st.Counter("sched.built").Inc()
	return &sched{cRan: st.Counter("jobs.ran")}
}
