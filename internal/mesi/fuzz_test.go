package mesi

// Fuzzing of the directory under DRAM back-pressure: three host clients
// with tiny caches and an oracle-DMA endpoint share a directory whose LLC
// holds four lines and whose DRAM channels queue one command each, so dirty
// LLC victims, refused fetches and refused writes are routine. The input
// decodes into host loads and stores and DMA reads and writes. Every run
// must finish without a protocol error, end with every line at its golden
// version (no write lost or applied twice), and leave CheckInvariants
// clean once quiescent. The committed seed corpus
// (testdata/fuzz/FuzzDirectory) replays on every plain `go test`; make
// fuzz-smoke explores beyond it.

import (
	"testing"

	"fusion/internal/cache"
	"fusion/internal/dram"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

const (
	fuzzDMA     AgentID = 9
	fuzzLines           = 16  // lines the input addresses, in 4 NUCA banks
	fuzzMaxOps          = 256 // bounds one run's length
	fuzzBudget          = 2_000_000
	fuzzBankGap         = 0x200 // lines this far apart share a NUCA bank
)

// fuzzDMAEngine is the DMA endpoint: it counts the transactions it has
// outstanding. A DMA read answers with DMAReadResp, or with Data when the
// directory forwards it to an owner.
type fuzzDMAEngine struct{ pending int }

func (d *fuzzDMAEngine) handle(m *Msg) {
	switch m.Type {
	case MsgDMAReadResp, MsgData, MsgDataE, MsgDataM, MsgDMAWriteAck:
		d.pending--
	}
}

// fuzzHarness builds the rig: a 4-line LLC, two DRAM channels with
// one-entry queues, and three clients with 8-line caches and 4 MSHRs.
func fuzzHarness() *harness {
	eng := sim.NewEngine()
	st := stats.NewSet()
	mt := energy.NewMeter()
	model := energy.Default()
	fab := NewFabric(eng, mt, st)
	dcfg := dram.DefaultConfig()
	dcfg.Channels, dcfg.QueueDepth = 2, 1
	d := dram.New(eng, dcfg, model, mt, st)
	cfg := DefaultDirConfig()
	cfg.LLC = cache.Params{SizeBytes: 256, Ways: 2, LineBytes: 64}
	h := &harness{eng: eng, fab: fab, dir: NewDirectory(fab, cfg, d, model, mt, st), st: st, mt: mt}
	for i := 0; i < 3; i++ {
		h.clients = append(h.clients, NewClient(fab, AgentID(1+i), ClientConfig{
			Name:           "fz." + string(rune('a'+i)),
			Cache:          cache.Params{SizeBytes: 512, Ways: 2, LineBytes: 64},
			MSHRs:          4,
			HitLatency:     2,
			EnergyCategory: energy.CatHostL1,
			AccessPJ:       model.HostL1Access,
		}, model, mt, st))
	}
	return h
}

// fuzzLine maps an input byte to one of fuzzLines line addresses, four per
// NUCA bank, so same-bank requests race for the same LLC set.
func fuzzLine(b byte) mem.PAddr {
	n := uint64(b) % fuzzLines
	return mem.PAddr(n/4*mem.LineBytes + n%4*fuzzBankGap)
}

func FuzzDirectory(f *testing.F) {
	f.Add([]byte{0, 0x10, 1, 0x21, 6, 0x02, 3, 0x13, 7, 0x04, 4, 0x25, 5, 0x16, 2, 0x07, 7, 0x08})
	f.Add([]byte{4, 0x00, 5, 0x04, 6, 0x08, 7, 0x0c, 3, 0x00, 0, 0x04, 1, 0x08, 2, 0x0c, 7, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2*fuzzMaxOps {
			data = data[:2*fuzzMaxOps]
		}
		h := fuzzHarness()
		dma := &fuzzDMAEngine{}
		h.fab.Register(fuzzDMA, dma.handle)
		run := func(cycles uint64, pred func() bool) bool {
			_, done, err := h.eng.RunE(cycles, pred)
			if err != nil {
				t.Fatalf("protocol error: %v", err)
			}
			return done
		}
		var golden [fuzzLines]uint64
		pending := 0
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			addr, write := fuzzLine(arg), op&4 != 0
			if write {
				golden[uint64(arg)%fuzzLines]++
			}
			if who := op % 4; who < 3 {
				kind := mem.Load
				if write {
					kind = mem.Store
				}
				pending++
				for !h.clients[who].Access(kind, addr, func(uint64) { pending-- }) {
					run(1, nil)
				}
			} else {
				// A DMA write adds one to the line, like a write-allocated
				// scratchpad line's delta.
				m := &Msg{Type: MsgDMARead, Addr: addr, Src: fuzzDMA, Dst: DirID}
				if write {
					m.Type, m.Delta, m.Ver = MsgDMAWrite, true, 1
				}
				dma.pending++
				h.fab.Send(m)
			}
			run(uint64(arg>>4), nil)
		}
		if !run(fuzzBudget, func() bool { return pending == 0 && dma.pending == 0 }) {
			t.Fatalf("%d host and %d DMA accesses still open after %d cycles:\n%s",
				pending, dma.pending, fuzzBudget, h.dir.DumpState())
		}
		for _, c := range h.clients {
			c.FlushAll()
		}
		quiet := func() bool {
			for _, c := range h.clients {
				if c.Outstanding() > 0 {
					return false
				}
			}
			return h.dir.DumpState() == "" && h.dir.dram.QueueOccupancy() == 0
		}
		if !run(fuzzBudget, quiet) {
			t.Fatalf("not quiescent after %d cycles:\n%s", fuzzBudget, h.dir.DumpState())
		}
		if bad := CheckInvariants(h.dir, h.clients); len(bad) > 0 {
			t.Fatalf("invariants: %v", bad)
		}
		for n := range golden {
			if a := fuzzLine(byte(n)); h.dir.Version(a) != golden[n] {
				t.Errorf("line %#x = v%d, want v%d", uint64(a), h.dir.Version(a), golden[n])
			}
		}
	})
}
