package interconnect

import (
	"testing"
	"testing/quick"

	"fusion/internal/energy"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

type testMsg int

func (m testMsg) Bytes() int { return int(m) }

func TestFlits(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{0, 0}, {1, 1}, {8, 1}, {9, 2}, {64, 8}, {72, 9},
	}
	for _, c := range cases {
		if got := Flits(c.bytes); got != c.want {
			t.Errorf("Flits(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestLinkDeliversAfterLatency(t *testing.T) {
	eng := sim.NewEngine()
	var got []uint64
	l := NewLink(eng, Config{
		Name: "test", Latency: 5,
		Deliver: func(m Message) { got = append(got, eng.Now()) },
	})
	l.Send(testMsg(8))
	for i := 0; i < 10; i++ {
		eng.Step()
	}
	if len(got) != 1 || got[0] != 5 {
		t.Fatalf("delivered at %v, want [5]", got)
	}
}

func TestLinkPreservesOrder(t *testing.T) {
	eng := sim.NewEngine()
	var got []Message
	l := NewLink(eng, Config{
		Name: "test", Latency: 3,
		Deliver: func(m Message) { got = append(got, m) },
	})
	l.Send(testMsg(8))
	l.Send(testMsg(72))
	for i := 0; i < 10; i++ {
		eng.Step()
	}
	if len(got) != 2 || got[0] != testMsg(8) || got[1] != testMsg(72) {
		t.Fatalf("got %v", got)
	}
}

func TestLinkBandwidthSerializes(t *testing.T) {
	eng := sim.NewEngine()
	var at []uint64
	l := NewLink(eng, Config{
		Name: "bw", Latency: 2, FlitsPerCycle: 1,
		Deliver: func(m Message) { at = append(at, eng.Now()) },
	})
	// Two 9-flit data messages back to back: second waits 9 cycles.
	l.Send(testMsg(DataBytes))
	l.Send(testMsg(DataBytes))
	for i := 0; i < 30; i++ {
		eng.Step()
	}
	if len(at) != 2 {
		t.Fatalf("delivered %d messages", len(at))
	}
	if at[1]-at[0] != 9 {
		t.Fatalf("serialization gap = %d cycles, want 9 (at=%v)", at[1]-at[0], at)
	}
}

func TestLinkStatsAndEnergy(t *testing.T) {
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	l := NewLink(eng, Config{
		Name: "tile", Latency: 1, PJPerByte: 0.4,
		Meter: mt, MeterCategory: energy.CatLinkTile, Stats: st,
		Deliver: func(Message) {},
	})
	l.Send(testMsg(ControlBytes)) // 8B control
	l.Send(testMsg(DataBytes))    // 72B data
	if st.Get("tile.msgs") != 2 {
		t.Fatalf("msgs = %d", st.Get("tile.msgs"))
	}
	if st.Get("tile.bytes") != 80 {
		t.Fatalf("bytes = %d, want 80", st.Get("tile.bytes"))
	}
	if st.Get("tile.flits") != 10 {
		t.Fatalf("flits = %d, want 10", st.Get("tile.flits"))
	}
	if st.Get("tile.ctrl") != 1 || st.Get("tile.data") != 1 {
		t.Fatalf("ctrl/data = %d/%d", st.Get("tile.ctrl"), st.Get("tile.data"))
	}
	if got, want := l.Traffic(), (Traffic{Msgs: 2, Flits: 10, Ctrl: 1, Data: 1}); got != want {
		t.Fatalf("Traffic = %+v, want %+v", got, want)
	}
	if got, want := l.Traffic().Add(l.Traffic()), (Traffic{Msgs: 4, Flits: 20, Ctrl: 2, Data: 2}); got != want {
		t.Fatalf("Traffic doubled = %+v, want %+v", got, want)
	}
	want := 0.4 * 80
	if got := mt.Get(energy.CatLinkTile); got != want {
		t.Fatalf("energy = %v, want %v", got, want)
	}
}

func TestLinkMinimumOneCycle(t *testing.T) {
	eng := sim.NewEngine()
	delivered := false
	l := NewLink(eng, Config{
		Name: "zero", Latency: 0,
		Deliver: func(Message) { delivered = true },
	})
	l.Send(testMsg(8))
	eng.Step()
	if delivered {
		t.Fatal("zero-latency link delivered same cycle")
	}
	eng.Step()
	if !delivered {
		t.Fatal("message never arrived")
	}
}

func TestRingLatency(t *testing.T) {
	r := Ring{Stops: 8, PerHop: 4, BankAccess: 6}
	if got := r.Latency(0, 0); got != 6 {
		t.Fatalf("same-stop latency = %d, want 6", got)
	}
	if got := r.Latency(0, 4); got != 22 { // 4 hops max distance
		t.Fatalf("opposite latency = %d, want 22", got)
	}
	// Wrap-around: 0 -> 7 is one hop, not seven.
	if got := r.Latency(0, 7); got != 10 {
		t.Fatalf("wrap latency = %d, want 10", got)
	}
	// Table 2: ~20-cycle average access.
	avg := r.AvgLatency()
	if avg < 12 || avg > 24 {
		t.Fatalf("avg ring latency %.1f outside plausible range", avg)
	}
}

// Property: ring latency is symmetric and bounded by half the ring.
func TestRingSymmetryProperty(t *testing.T) {
	r := Ring{Stops: 8, PerHop: 4, BankAccess: 6}
	f := func(a, b uint8) bool {
		x, y := int(a%8), int(b%8)
		lat := r.Latency(x, y)
		return lat == r.Latency(y, x) && lat <= uint64(4)*4+6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery order always matches send order irrespective of sizes.
func TestOrderProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		eng := sim.NewEngine()
		var got []int
		l := NewLink(eng, Config{
			Name: "p", Latency: 2, FlitsPerCycle: 2,
			Deliver: func(m Message) { got = append(got, m.Bytes()) },
		})
		want := make([]int, 0, len(sizes))
		for _, s := range sizes {
			b := int(s%72) + 1
			want = append(want, b)
			l.Send(testMsg(b))
		}
		for i := 0; i < len(sizes)*40+10; i++ {
			eng.Step()
		}
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
