package sim

// heapScheduler is the test-only reference event queue: the monomorphic
// eventHeap adapted to the scheduler interface. O(log n) push/pop, O(1)
// peek, no notion of a clock (advance is a no-op). The differential tests
// swap it in for the engine's time-wheel and require identical behavior.
type heapScheduler struct {
	h eventHeap
}

func (s *heapScheduler) push(ev event) { s.h.push(ev) }

func (s *heapScheduler) popDue(now uint64) (event, bool) {
	if len(s.h) == 0 || s.h[0].at > now {
		return event{}, false
	}
	return s.h.pop(), true
}

func (s *heapScheduler) next() (uint64, bool) {
	if len(s.h) == 0 {
		return 0, false
	}
	return s.h[0].at, true
}

func (s *heapScheduler) len() int       { return len(s.h) }
func (s *heapScheduler) advance(uint64) {}

// schedulers lists the implementations the differential tests compare: the
// reference heap and the engine's default time-wheel.
var schedulers = []struct {
	name string
	new  func() scheduler
}{
	{"heap", func() scheduler { return &heapScheduler{} }},
	{"wheel", func() scheduler { return newWheelScheduler() }},
}
