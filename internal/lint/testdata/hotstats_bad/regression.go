// The fusiond job-execution bodies are hot too: worker and safeRun wrap
// every job, and BuildCell — a free function, which a receiver-only match
// misses — encloses an entire simulation.
package hotstatsbad

import "fusion/internal/stats"

type sched struct {
	st *stats.Set
}

func (s *sched) worker() {
	s.st.Counter("jobs.ran").Inc() // want "stats.Set.Counter in hot function worker"
}

func (s *sched) safeRun() {
	s.st.Counter("jobs.safe").Inc() // want "stats.Set.Counter in hot function safeRun"
}

// BuildCell is receiver-less: the regression this fixture pins.
func BuildCell(st *stats.Set) int64 {
	st.Counter("cells.built").Inc() // want "stats.Set.Counter in hot function BuildCell"
	return st.Get("cells.built")    // want "stats.Set.Get in hot function BuildCell"
}
