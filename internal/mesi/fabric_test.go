package mesi

import (
	"reflect"
	"strings"
	"testing"

	"fusion/internal/faults"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// faultedFabric is a fabric with agents 1 and 2 registered, a named route
// pair between them, and a jitter-and-stall plan armed on every route.
func faultedFabric(t *testing.T, deliver Endpoint) (*sim.Engine, *Fabric, *stats.Set) {
	t.Helper()
	eng := sim.NewEngine()
	st := stats.NewSet()
	fab := NewFabric(eng, nil, st)
	fab.Register(1, deliver)
	fab.Register(2, deliver)
	fab.SetRoutePair(1, 2, Route{Latency: 2, FlitsPerCycle: 1, StatName: "pair"})
	fab.SetInjector(faults.NewInjector(faults.Plan{Seed: 3,
		LinkJitterProb: 0.8, LinkJitterMax: 12,
		LinkStallProb: 0.5, LinkStallEvery: 64, LinkStallLen: 16}))
	return eng, fab, st
}

// TestFabricJitterPreservesOrder floods a route under a jitter-and-stall
// plan and requires send-order delivery: injected delay may slow messages
// but never reorder them.
func TestFabricJitterPreservesOrder(t *testing.T) {
	var got []mem.PAddr
	eng, fab, st := faultedFabric(t, func(m *Msg) { got = append(got, m.Addr) })
	const n = 200
	for i := 0; i < n; i++ {
		m := &Msg{Type: MsgData, Addr: mem.PAddr(i), Src: 2, Dst: 1}
		eng.Schedule(uint64(i*3), func(uint64) { fab.Send(m) })
	}
	for eng.Now() < 10000 {
		eng.Step()
	}
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, a := range got {
		if a != mem.PAddr(i) {
			t.Fatalf("delivery %d carried message %d: jitter reordered the route", i, a)
		}
	}
	if st.Get("fabric.faults") == 0 {
		t.Fatal("no fabric.faults recorded under an armed plan")
	}
}

// TestFabricFaultsAndPairCounters: injected delays land only in the one
// fabric.faults counter, and both directions of a SetRoutePair feed one
// <StatName>.* set, interned msgs, bytes, flits, ctrl, data when the route
// is set.
func TestFabricFaultsAndPairCounters(t *testing.T) {
	eng, fab, st := faultedFabric(t, func(*Msg) {})
	want := []string{"fabric.faults",
		"pair.msgs", "pair.bytes", "pair.flits", "pair.ctrl", "pair.data"}
	if got := st.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("interned %v before traffic, want %v", got, want)
	}
	const n = 50
	for i := 0; i < n; i++ {
		fab.Send(&Msg{Type: MsgGetS, Src: 1, Dst: 2})
		fab.Send(&Msg{Type: MsgData, Src: 2, Dst: 1})
		eng.Step()
	}
	for eng.Now() < 5000 {
		eng.Step()
	}
	if got := st.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters after traffic %v, want %v", got, want)
	}
	for name, v := range map[string]int64{
		"pair.msgs": 2 * n, "pair.bytes": n * (8 + 72), "pair.flits": n * (1 + 9),
		"pair.ctrl": n, "pair.data": n,
	} {
		if got := st.Get(name); got != v {
			t.Errorf("%s = %d, want %d", name, got, v)
		}
	}
	if st.Get("fabric.faults") == 0 || fab.Faults() != st.Get("fabric.faults") {
		t.Fatalf("fabric.faults = %d, Faults() = %d", st.Get("fabric.faults"), fab.Faults())
	}
	// Either direction's link reports the pair's shared counters.
	want12 := interconnect.Traffic{Msgs: 2 * n, Flits: n * (1 + 9), Ctrl: n, Data: n}
	if a, b := fab.Link(1, 2).Traffic(), fab.Link(2, 1).Traffic(); a != want12 || b != want12 {
		t.Errorf("Link traffic 1->2 %+v, 2->1 %+v, want %+v", a, b, want12)
	}
	if fab.Link(1, 3) != nil {
		t.Error("an unrouted pair has a link")
	}
	for _, name := range st.Names() {
		if strings.HasSuffix(name, ".faults") && name != "fabric.faults" {
			t.Errorf("route counted its own faults in %s", name)
		}
	}
}
