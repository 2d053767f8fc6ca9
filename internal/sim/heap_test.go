package sim

// heapQueue is the test-only reference event queue: one overflowHeap
// holding every event in (at, push order). It has no near wheel and no
// notion of a clock (advance is a no-op); fire pops and dispatches every
// event due. The differential tests drive it and the engine's wheel
// through the same call sequence and require identical firing logs.
type heapQueue struct{ h overflowHeap }

func (q *heapQueue) push(at uint64, h EventHandler, op uint8, arg uint64) {
	q.h.push(event{at: at, h: h, arg: arg, op: op})
}

func (q *heapQueue) advance(uint64) {}

func (q *heapQueue) fire(now uint64) {
	for len(q.h.items) > 0 && q.h.items[0].at <= now {
		ev := q.h.pop()
		ev.h.HandleEvent(now, ev.op, ev.arg)
	}
}

func (q *heapQueue) next() (uint64, bool) {
	if len(q.h.items) == 0 {
		return 0, false
	}
	return q.h.items[0].at, true
}

func (q *heapQueue) len() int { return len(q.h.items) }

// queue is the call sequence Engine.Step and Engine.Run issue to their
// event queue. Only the tests name it: the engine calls its
// *wheelScheduler directly.
type queue interface {
	push(at uint64, h EventHandler, op uint8, arg uint64)
	advance(now uint64)
	fire(now uint64)
	next() (uint64, bool)
	len() int
}

// queues lists the implementations the differential tests compare: the
// reference heap and the engine's time wheel.
var queues = []struct {
	name string
	new  func() queue
}{
	{"heap", func() queue { return &heapQueue{} }},
	{"wheel", func() queue { return newWheelScheduler() }},
}
