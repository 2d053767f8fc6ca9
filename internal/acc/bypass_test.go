package acc

// HYDRA cacheability-filter tests: the L1X allocation-bypass decision
// (reuse and deadline terms), the one-shot NoAlloc service path through the
// L0X, the store-waiter retry that keeps writes on the real ownership path,
// and the DMA-write invalidation of a dirty tile owner (the version-merge
// handshake the mixed-placement systems depend on).

import (
	"testing"

	"fusion/internal/mem"
	"fusion/internal/scratchpad"
)

func TestBypassFilterLowReuse(t *testing.T) {
	h := newHarness(t, 1, false)
	h.tile.L1X.EnableBypassFilter(2, 0.1)

	// First touch: one touch < threshold 2, the fetch bypasses allocation.
	h.axcDo(t, 0, mem.Load, 0x1000)
	if got := h.st.Get("l1x.bypass_alloc"); got != 1 {
		t.Fatalf("bypass_alloc = %d, want 1", got)
	}
	if h.tile.L1X.Peek(0x1000, 1) != nil {
		t.Fatal("bypassed fetch allocated an L1X line")
	}

	// Second touch crosses the reuse threshold: allocate normally.
	h.axcDo(t, 0, mem.Load, 0x1000)
	if got := h.st.Get("l1x.bypass_alloc"); got != 1 {
		t.Fatalf("bypass_alloc after retouch = %d, want still 1", got)
	}
	if h.tile.L1X.Peek(0x1000, 1) == nil {
		t.Fatal("second touch did not allocate")
	}
}

func TestBypassFilterDeadline(t *testing.T) {
	h := newHarness(t, 1, false)
	h.tile.L1X.EnableBypassFilter(2, 0.1)
	h.tile.L1X.SetDeadline(1) // every fill completes past the deadline

	// Even a re-touched (high-reuse) line bypasses: the deadline term is
	// consulted first.
	h.axcDo(t, 0, mem.Load, 0x2000)
	h.axcDo(t, 0, mem.Load, 0x2000)
	if got := h.st.Get("l1x.bypass_deadline"); got != 2 {
		t.Fatalf("bypass_deadline = %d, want 2", got)
	}
	if got := h.st.Get("l1x.bypass_alloc"); got != 0 {
		t.Fatalf("bypass_alloc = %d, want 0 (deadline term owns both)", got)
	}
	if h.tile.L1X.Peek(0x2000, 1) != nil {
		t.Fatal("deadline-critical fetch allocated")
	}
}

func TestBypassFilterIgnoreDeadlineMutation(t *testing.T) {
	h := newHarness(t, 1, false)
	h.tile.L1X.EnableBypassFilter(2, 0.1)
	h.tile.L1X.SetDeadline(1)
	h.tile.L1X.SetMutations(&Mutations{IgnoreDeadline: true})

	// The mutation drops the deadline term, so the bypass is re-attributed
	// to the reuse term — exactly the signature the ignore-deadline litmus
	// mutant is killed by.
	h.axcDo(t, 0, mem.Load, 0x3000)
	if got := h.st.Get("l1x.bypass_deadline"); got != 0 {
		t.Fatalf("bypass_deadline = %d, want 0 under IgnoreDeadline", got)
	}
	if got := h.st.Get("l1x.bypass_alloc"); got != 1 {
		t.Fatalf("bypass_alloc = %d, want 1", got)
	}
}

func TestBypassStoreWaiterRetries(t *testing.T) {
	h := newHarness(t, 1, false)
	h.tile.L1X.EnableBypassFilter(2, 0.1)

	// Queue a store behind a load's in-flight fetch of the same line. The
	// load's fetch bypasses (all L1X waiters are reads); the store waiter
	// must then retry as a real write-ownership request and allocate —
	// NoAlloc never weakens the single-writer path.
	l0 := h.tile.L0Xs[0]
	var loadDone, storeDone bool
	if !l0.Access(mem.Load, 0x4000, func(uint64) { loadDone = true }) {
		t.Fatal("load rejected on idle cache")
	}
	if !l0.Access(mem.Store, 0x4008, func(uint64) { storeDone = true }) {
		t.Fatal("store rejected on idle cache")
	}
	h.run(t, 200000, func() bool { return loadDone && storeDone })
	if got := h.st.Get("l1x.bypass_alloc"); got != 1 {
		t.Fatalf("bypass_alloc = %d, want 1", got)
	}
	if h.tile.L1X.Peek(0x4000, 1) == nil {
		t.Fatal("store retry did not allocate the line")
	}
}

func TestDMAWriteInvalidatesDirtyOwner(t *testing.T) {
	h := newHarness(t, 1, false)

	// The tile dirties a line it owns dirE (v1). A DMA delta write must
	// invalidate the owner, merge the dirty version carried on the InvAck,
	// and commit the delta on top — v1 + 1 = v2.
	h.axcDo(t, 0, mem.Store, 0x5000)
	dma := scratchpad.NewDMA(h.fab, 9, 1, 0, h.st)
	pa := h.pt.Translate(1, 0x5000).LineAddr()
	dma.WriteLine(pa, 1, true, nil, 0)
	h.run(t, 400000, dma.Idle)
	if h.tile.L1X.Peek(0x5000, 1) != nil {
		t.Fatal("invalidated owner still holds the line")
	}

	var got dmaVersion
	dma.ReadLine(pa, &got, 0)
	h.run(t, 400000, dma.Idle)
	if got != 2 {
		t.Fatalf("post-invalidate version = %d, want 2 (dirty v1 + delta)", got)
	}
}

// dmaVersion is a DMA sink that keeps the version its read delivered.
type dmaVersion uint64

func (v *dmaVersion) DMADone(_, ver uint64) { *v = dmaVersion(ver) }
