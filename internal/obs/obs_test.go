package obs

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Load:        "LD",
		Store:       "ST",
		Fill:        "FILL",
		L0XMiss:     "l0x-miss",
		LeaseGrant:  "lease-grant",
		EpochGrant:  "epoch-grant",
		DirDMAWrite: "dir-dma-write",
		Phase:       "phase",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), name)
		}
	}
	protocol := 0
	for k := Load; k <= Phase; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("Kind(%d) has no name", k)
		}
		if k.Protocol() {
			protocol++
		}
	}
	if protocol != 19 {
		t.Errorf("%d protocol kinds, want 19", protocol)
	}
	if Load.Protocol() || Fill.Protocol() || Phase.Protocol() {
		t.Error("a data event or phase mark counts as a protocol transition")
	}
	if got := Kind(200).String(); got != "Kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
}

func ev(k Kind, cycle uint64) Event {
	return Event{Cycle: cycle, Agent: "l1x", Kind: k, Addr: 0x1000}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Cycle: 42, Agent: "l1x", Kind: LeaseGrant, Addr: 0x40, Peer: 1, Lease: 542},
			"      42  l1x      lease-grant      0x40  axc1 until 542"},
		{Event{Cycle: 7, Agent: "l0x.0", Kind: Writeback, Addr: 0x80},
			"       7  l0x.0    writeback        0x80"},
		{Event{Cycle: 9, Agent: "l1x", Kind: FwdParked, Addr: 0x80, Msg: "inv", Lease: 30},
			"       9  l1x      fwd-parked       0x80  inv until GTIME 30"},
		{Event{Cycle: 9, Agent: "dir", Kind: DirForward, Addr: 0x80, Msg: "FwdGetS", Peer: 2, Requester: 1},
			"       9  dir      dir-fwd          0x80  FwdGetS to agent2 for agent1"},
		{Event{Cycle: 3, Agent: "l1x", Kind: Relinquish, Addr: 0xc0, Peer: 1, Dirty: true},
			"       3  l1x      relinquish       0xc0  to agent1 dirty=true"},
		{Event{Cycle: 1, Agent: "l0x.1", Kind: L0XMiss, Addr: 0x40, Msg: "GetW"},
			"       1  l0x.1    l0x-miss         0x40  GetW"},
		{Event{Cycle: 2, Agent: "l0x.0", Kind: DxForward, Addr: 0x40, Peer: 1, Lease: 90},
			"       2  l0x.0    dx-forward       0x40  to axc1 lease=90"},
		{Event{Cycle: 4, Agent: "l1x", Kind: WLockStall, Addr: 0x40, Peer: 2, Msg: "GetL"},
			"       4  l1x      wlock-stall      0x40  axc2 GetL"},
		{Event{Cycle: 5, Agent: "l1x", Kind: L1XFetch, Addr: 0x40, PA: 0x9040},
			"       5  l1x      l1x-fetch        0x40  pa=0x9040"},
		{Event{Cycle: 6, Agent: "l1x", Kind: FwdParked, Addr: 0x40, Lease: 70},
			"       6  l1x      fwd-parked       0x40  until GTIME 70"},
		{Event{Cycle: 8, Agent: "dir", Kind: DirRead, Addr: 0x9040, Peer: 1},
			"       8  dir      dir-gets         0x9040  from agent1"},
		{Event{Cycle: 8, Agent: "l0x.1", Kind: Load, Addr: 0x48, Ver: 3, Lease: 99},
			"       8  l0x.1    LD               0x48  v3 until 99"},
		{Event{Cycle: 8, Agent: "hostl1", Kind: Store, Addr: 0x9048, Ver: 4, Phys: true},
			"       8  hostl1   ST               0x9048  v4"},
		{Event{Cycle: 10, Kind: Phase, Epoch: 2},
			"      10           phase            0x0  epoch 2"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestWriterCapsOutput(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb, Max: 2}
	for i := 0; i < 5; i++ {
		w.Record(ev(Writeback, uint64(i)))
	}
	out := sb.String()
	if strings.Count(out, "writeback") != 2 {
		t.Fatalf("emitted %d lines, want 2:\n%s", strings.Count(out, "writeback"), out)
	}
	if !strings.Contains(out, "capped") {
		t.Fatal("no cap notice")
	}
}

func TestWriterUnlimited(t *testing.T) {
	var sb strings.Builder
	w := &Writer{W: &sb}
	for i := 0; i < 10; i++ {
		w.Record(ev(SelfInvalidate, uint64(i)))
	}
	if strings.Count(sb.String(), "self-invalidate") != 10 {
		t.Fatal("unlimited writer dropped events")
	}
}

func TestCollectorFilterAndCount(t *testing.T) {
	c := &Collector{}
	c.Record(ev(LeaseGrant, 1))
	c.Record(ev(EpochGrant, 2))
	c.Record(ev(LeaseGrant, 3))
	if c.Count(LeaseGrant) != 2 || c.Count(EpochGrant) != 1 || c.Count(Writeback) != 0 {
		t.Fatalf("counts wrong: %d/%d/%d",
			c.Count(LeaseGrant), c.Count(EpochGrant), c.Count(Writeback))
	}
	grants := c.Filter(LeaseGrant)
	if len(grants) != 2 || grants[0].Cycle != 1 || grants[1].Cycle != 3 {
		t.Fatalf("Filter = %+v", grants)
	}
}

func TestCollectorCap(t *testing.T) {
	c := &Collector{Max: 3}
	for i := 0; i < 10; i++ {
		c.Record(ev(DirRead, uint64(i)))
	}
	if len(c.Events) != 3 {
		t.Fatalf("collected %d, want 3", len(c.Events))
	}
}
