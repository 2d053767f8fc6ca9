package interconnect

import (
	"testing"

	"fusion/internal/faults"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// TestLinkBackToBackOccupancy checks nextFree bookkeeping directly: N
// back-to-back data messages at 1 flit/cycle serialize head-to-tail, so
// deliveries land exactly one occupancy apart.
func TestLinkBackToBackOccupancy(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []uint64
	l := NewLink(eng, Config{
		Name: "bw", Latency: 4, FlitsPerCycle: 1,
		Deliver: func(Message) { arrivals = append(arrivals, eng.Now()) },
	})
	const n = 5
	for i := 0; i < n; i++ {
		l.Send(testMsg(72)) // 9 flits -> 9 cycles of occupancy each
	}
	for i := 0; i < 100; i++ {
		eng.Step()
	}
	if len(arrivals) != n {
		t.Fatalf("delivered %d messages, want %d", len(arrivals), n)
	}
	for i, at := range arrivals {
		want := uint64(i*9 + 4)
		if at != want {
			t.Errorf("message %d arrived at %d, want %d", i, at, want)
		}
	}
}

// TestLinkZeroLatencyFloor: even a zero-latency, unlimited-bandwidth link
// must deliver strictly after the send cycle (arrive <= now is floored to
// now+1), or a same-cycle delivery could re-enter the sender mid-cycle.
func TestLinkZeroLatencyFloor(t *testing.T) {
	eng := sim.NewEngine()
	var arrivals []uint64
	l := NewLink(eng, Config{
		Name: "zero", Latency: 0,
		Deliver: func(Message) { arrivals = append(arrivals, eng.Now()) },
	})
	eng.Schedule(3, func(uint64) { l.Send(testMsg(8)) })
	for i := 0; i < 10; i++ {
		eng.Step()
	}
	if len(arrivals) != 1 || arrivals[0] != 4 {
		t.Fatalf("zero-latency delivery at %v, want [4]", arrivals)
	}
}

// TestLinkJitterPreservesOrder floods a jittered link and requires FIFO
// delivery: injected delay may slow messages but never reorder them.
func TestLinkJitterPreservesOrder(t *testing.T) {
	plan := faults.Plan{Seed: 3,
		LinkJitterProb: 0.8, LinkJitterMax: 12,
		LinkStallProb: 0.5, LinkStallEvery: 64, LinkStallLen: 16}
	eng := sim.NewEngine()
	var got []int
	l := NewLink(eng, Config{
		Name: "jitter", Latency: 2, FlitsPerCycle: 1,
		Injector: faults.NewInjector(plan),
		Deliver:  func(m Message) { got = append(got, int(m.(testMsg))) },
	})
	const n = 200
	for i := 0; i < n; i++ {
		i := i
		eng.Schedule(uint64(i*3), func(uint64) { l.Send(testMsg(i)) })
	}
	for eng.Now() < 5000 {
		eng.Step()
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery %d carried message %d: jitter reordered the link", i, v)
		}
	}
}

// TestLinkJitterDeterministic runs the same traffic over the same plan twice
// and requires identical delivery times.
func TestLinkJitterDeterministic(t *testing.T) {
	run := func() []uint64 {
		plan := faults.RandomPlan(17)
		eng := sim.NewEngine()
		var arrivals []uint64
		l := NewLink(eng, Config{
			Name: "det", Latency: 3, FlitsPerCycle: 1,
			Injector: faults.NewInjector(plan),
			Deliver:  func(Message) { arrivals = append(arrivals, eng.Now()) },
		})
		for i := 0; i < 100; i++ {
			eng.Schedule(uint64(i*2), func(uint64) { l.Send(testMsg(72)) })
		}
		for eng.Now() < 5000 {
			eng.Step()
		}
		return arrivals
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs delivered %d vs %d messages", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at cycle %d vs %d: jitter not deterministic", i, a[i], b[i])
		}
	}
}

// TestLinkFaultsCountedInStats: injected link faults are observable.
func TestLinkFaultsCountedInStats(t *testing.T) {
	plan := faults.Plan{Seed: 1, LinkJitterProb: 1.0, LinkJitterMax: 4}
	eng := sim.NewEngine()
	st := stats.NewSet()
	l := NewLink(eng, Config{
		Name: "cnt", Latency: 1, Stats: st,
		Injector: faults.NewInjector(plan),
		Deliver:  func(Message) {},
	})
	for i := 0; i < 10; i++ {
		l.Send(testMsg(8))
		eng.Step()
	}
	if st.Get("cnt.faults") == 0 {
		t.Fatal("no cnt.faults recorded despite 100% jitter probability")
	}
	if l.Faults() != st.Get("cnt.faults") {
		t.Fatalf("Faults = %d, cnt.faults = %d", l.Faults(), st.Get("cnt.faults"))
	}
}

// TestLinkSharedFaultCounter: links handed one Faults counter count their
// injected delays there and intern no <name>.faults counter of their own.
func TestLinkSharedFaultCounter(t *testing.T) {
	plan := faults.Plan{Seed: 1, LinkJitterProb: 1.0, LinkJitterMax: 4}
	eng := sim.NewEngine()
	st := stats.NewSet()
	shared := st.Counter("group.faults")
	var links []*Link
	for _, name := range []string{"a", "b"} {
		links = append(links, NewLink(eng, Config{
			Name: name, Latency: 1, Stats: st, Faults: shared,
			Injector: faults.NewInjector(plan),
			Deliver:  func(Message) {},
		}))
	}
	for _, l := range links {
		l.Send(testMsg(8))
	}
	eng.Step()
	if shared.Value() != 2 {
		t.Fatalf("group.faults = %d, want 2 (one per jittered send)", shared.Value())
	}
	for _, name := range st.Names() {
		if name == "a.faults" || name == "b.faults" {
			t.Fatalf("a link with a shared fault counter interned %s", name)
		}
	}
}
