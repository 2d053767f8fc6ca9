package dram

import (
	"fmt"
	"strings"
	"testing"

	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

func setup() (*sim.Engine, *DRAM, *stats.Set, *energy.Meter) {
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	d := New(eng, DefaultConfig(), energy.Default(), mt, st)
	return eng, d, st, mt
}

func run(eng *sim.Engine, cycles int) {
	for i := 0; i < cycles; i++ {
		eng.Step()
	}
}

func TestReadCompletesWithinLatency(t *testing.T) {
	eng, d, st, _ := setup()
	var doneAt uint64
	ok := d.Submit(Request{Addr: 0x1000, Done: func(now uint64) { doneAt = now }})
	if !ok {
		t.Fatal("submit rejected on empty queue")
	}
	run(eng, 400)
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	cfg := DefaultConfig()
	if doneAt < cfg.RowHitLat || doneAt > cfg.RowMissLat+10 {
		t.Fatalf("completed at %d, want within [%d,%d]", doneAt, cfg.RowHitLat, cfg.RowMissLat+10)
	}
	if st.Get("dram.reads") != 1 {
		t.Fatalf("reads stat = %d", st.Get("dram.reads"))
	}
}

func TestRowBufferHit(t *testing.T) {
	eng, d, st, _ := setup()
	// Two lines in the same row and channel: stride by channels*64 within a 2KB row.
	d.Submit(Request{Addr: 0x0000, Done: func(uint64) {}})
	d.Submit(Request{Addr: 0x0100, Done: func(uint64) {}}) // same channel (line 4 % 4 == 0), same 2KB row
	run(eng, 800)
	if st.Get("dram.row_miss") != 1 || st.Get("dram.row_hit") != 1 {
		t.Fatalf("row_miss=%d row_hit=%d, want 1/1",
			st.Get("dram.row_miss"), st.Get("dram.row_hit"))
	}
}

func TestRowBufferMissOnDifferentRow(t *testing.T) {
	eng, d, st, _ := setup()
	d.Submit(Request{Addr: 0x0000, Done: func(uint64) {}})
	d.Submit(Request{Addr: 0x10000, Done: func(uint64) {}}) // different row, same channel
	run(eng, 800)
	if st.Get("dram.row_miss") != 2 {
		t.Fatalf("row_miss=%d, want 2", st.Get("dram.row_miss"))
	}
}

func TestChannelInterleaving(t *testing.T) {
	_, d, _, _ := setup()
	ch := map[int]bool{}
	for i := 0; i < 4; i++ {
		ch[d.channelOf(mem.PAddr(i*64))] = true
	}
	if len(ch) != 4 {
		t.Fatalf("4 consecutive lines map to %d channels, want 4", len(ch))
	}
}

func TestQueueBackpressure(t *testing.T) {
	eng, d, st, _ := setup()
	// Fill channel 0's queue (addresses stride 4*64 stay on channel 0).
	accepted := 0
	for i := 0; i < 40; i++ {
		if d.Submit(Request{Addr: mem.PAddr(i * 256), Done: func(uint64) {}}) {
			accepted++
		}
	}
	if accepted != DefaultConfig().QueueDepth {
		t.Fatalf("accepted %d, want %d", accepted, DefaultConfig().QueueDepth)
	}
	if st.Get("dram.queue_full") == 0 {
		t.Fatal("no queue_full recorded")
	}
	run(eng, 2000)
	if d.QueueOccupancy() != 0 {
		t.Fatalf("queue not drained: %d", d.QueueOccupancy())
	}
}

func TestWritesCountedAndEnergy(t *testing.T) {
	eng, d, st, mt := setup()
	d.Submit(Request{Addr: 0x40, Write: true, Done: func(uint64) {}})
	run(eng, 400)
	if st.Get("dram.writes") != 1 {
		t.Fatalf("writes = %d", st.Get("dram.writes"))
	}
	if mt.Get(energy.CatDRAM) != energy.Default().DRAMAccess {
		t.Fatalf("dram energy = %v", mt.Get(energy.CatDRAM))
	}
	if mt.Get(energy.CatLinkMem) == 0 {
		t.Fatal("no memory-link energy accounted")
	}
}

func TestChannelServiceOrder(t *testing.T) {
	eng, d, _, _ := setup()
	var order []int
	// Distinct rows on the same channel: all row misses, equal latency, so
	// completion order reflects FIFO issue order.
	for i := 0; i < 3; i++ {
		i := i
		d.Submit(Request{Addr: mem.PAddr(i * 0x10000), Done: func(uint64) { order = append(order, i) }})
	}
	run(eng, 2000)
	if len(order) != 3 {
		t.Fatalf("completed %d, want 3", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
}

// TestChannelServiceOrderAcrossWrap keeps one channel's queue busy while
// its ring wraps several times: commands still complete in submission
// order, a full queue still refuses, and the dump names the oldest.
func TestChannelServiceOrderAcrossWrap(t *testing.T) {
	eng, d, st, _ := setup()
	depth := DefaultConfig().QueueDepth
	var order []int
	next := 0
	submit := func() bool {
		i := next
		ok := d.Submit(Request{Addr: mem.PAddr(i * 0x10000), Done: func(uint64) { order = append(order, i) }})
		if ok {
			next++
		}
		return ok
	}
	for next < 3*depth {
		for submit() {
		}
		if d.QueueOccupancy() != depth {
			t.Fatalf("queue holds %d after filling, want %d", d.QueueOccupancy(), depth)
		}
		if want := fmt.Sprintf("head %#x", (next-depth)*0x10000); !strings.Contains(d.DumpState(), want) {
			t.Fatalf("dump %q does not name the oldest command (%s)", d.DumpState(), want)
		}
		run(eng, 7) // issue a few
	}
	run(eng, 100000)
	if d.QueueOccupancy() != 0 || len(order) != next {
		t.Fatalf("%d queued and %d of %d completed after draining", d.QueueOccupancy(), len(order), next)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("completion %d is command %d, want FIFO", i, v)
		}
	}
	if st.Get("dram.queue_full") == 0 {
		t.Fatal("no queue_full recorded")
	}
}

func TestNilDoneIsAllowed(t *testing.T) {
	eng, d, st, _ := setup()
	d.Submit(Request{Addr: 0x40, Write: true})
	run(eng, 400)
	if st.Get("dram.writes") != 1 {
		t.Fatal("write with nil Done not processed")
	}
}
