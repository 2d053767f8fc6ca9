package systems

import (
	"testing"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/vm"
)

// TestSharedPortRetriesFullMSHRAfterWalk sends two loads to different pages
// through a 1-MSHR shared L1X. Both miss the TLB and reach the L1X in the
// same cycle after their walks, so the second finds the MSHR taken. It must
// retry at the L1X until accepted, paying for one switch crossing and one
// TLB lookup like any other access. Re-entering the port instead charged
// both twice, and when the repeated lookup hit while the MSHR was still
// busy the load was dropped and never completed.
func TestSharedPortRetriesFullMSHRAfterWalk(t *testing.T) {
	m := newMachine()
	client := mesi.NewClient(m.fab, tileAgent, mesi.ClientConfig{
		Name:           "sharedl1x",
		Cache:          cache.Params{SizeBytes: 64 << 10, Ways: 8, LineBytes: mem.LineBytes},
		MSHRs:          1,
		HitLatency:     4,
		EnergyCategory: energy.CatL1X,
		AccessPJ:       m.model.L1XAccessSmall,
	}, m.model, m.mt, m.st)
	port := &sharedPort{m: m, client: client, eng: m.eng,
		tlb:   vm.NewTLB("sharedtlb", 32, 40, m.pt, m.model, m.mt, m.st),
		cMsgs: m.st.Counter("sharedswitch.msgs")}

	done := 0
	for _, va := range []mem.VAddr{0x10000, 0x20000} {
		if !port.Access(mem.Load, va, func(uint64) { done++ }) {
			t.Fatalf("load %#x refused", uint64(va))
		}
	}
	m.end = 100_000
	if err := m.run(func() bool { return done == 2 }); err != nil {
		t.Fatalf("%d of 2 loads completed: %v", done, err)
	}
	if got := m.st.Get("sharedswitch.msgs"); got != 2 {
		t.Errorf("sharedswitch.msgs = %d, want 2 (one per access)", got)
	}
	if got := m.st.Get("sharedtlb.lookups"); got != 2 {
		t.Errorf("sharedtlb.lookups = %d, want 2 (one per access)", got)
	}
}
