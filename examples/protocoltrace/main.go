// Protocoltrace walks through the ACC coherence protocol's mechanics on a
// tiny producer-consumer workload and prints the protocol-level event
// counters: lease grants, write epochs, self-invalidations, self-downgrades,
// writebacks, and the stalls and host forwards that the timestamp scheme
// resolves without ever sending an invalidation to an L0X.
//
// It mirrors the message sequences of the paper's Figures 4 and 5.
package main

import (
	"fmt"

	"fusion"
)

func main() {
	const base = fusion.VAddr(0x100000)

	// AXC-0 writes 32 lines; AXC-1 reads them back four times. The
	// consumer is Serial (a loop-carried dependence), so a pass takes
	// hundreds of cycles: the 800-cycle leases survive into the second
	// pass (hits) but lapse by the third (silent self-invalidation +
	// re-lease).
	producer := fusion.Invocation{Function: "producer", AXC: 0, LeaseTime: 800}
	consumer := fusion.Invocation{Function: "consumer", AXC: 1, LeaseTime: 800, Serial: true}
	for pass := 0; pass < 1; pass++ {
		for i := 0; i < 32; i++ {
			a := base + fusion.VAddr(i*64)
			producer.Iterations = append(producer.Iterations, fusion.Iteration{
				Loads: []fusion.VAddr{a}, Stores: []fusion.VAddr{a}, IntOps: 4,
			})
		}
	}
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < 32; i++ {
			a := base + fusion.VAddr(i*64)
			consumer.Iterations = append(consumer.Iterations, fusion.Iteration{
				Loads: []fusion.VAddr{a}, IntOps: 32, // slow serial compute
			})
		}
	}
	// A final host phase reads everything back through MESI, exercising the
	// AX-RMAP / GTIME-stall path of Figure 4 (right).
	host := fusion.Invocation{Function: "host_readback", AXC: -1}
	for i := 0; i < 32; i++ {
		host.Iterations = append(host.Iterations, fusion.Iteration{
			Loads: []fusion.VAddr{base + fusion.VAddr(i*64)}, IntOps: 1,
		})
	}

	b := &fusion.Benchmark{
		Program: &fusion.Program{Name: "prototrace", Phases: []fusion.Phase{
			{Kind: fusion.PhaseAccel, Inv: producer},
			{Kind: fusion.PhaseAccel, Inv: consumer},
			{Kind: fusion.PhaseHost, Inv: host},
		}},
		LeaseTimes: map[string]uint64{"producer": 800, "consumer": 800},
		MLP:        map[string]int{"producer": 4, "consumer": 4},
	}
	for i := 0; i < 32; i++ {
		b.InputLines = append(b.InputLines, base+fusion.VAddr(i*64))
	}

	// Collect the full message-level protocol trace alongside the counters.
	collector := &fusion.TraceCollector{}
	cfg := fusion.DefaultConfig(fusion.FusionSystem)
	cfg.Observer = collector
	res, err := fusion.Run(b, cfg)
	if err != nil {
		panic(err)
	}

	var protocol []fusion.ProtocolEvent
	for _, e := range collector.Events {
		if e.Kind.Protocol() {
			protocol = append(protocol, e)
		}
	}
	fmt.Println("First 24 protocol events (the message sequences of Figures 4/5):")
	for i, e := range protocol {
		if i == 24 {
			fmt.Printf("   ... %d more\n", len(protocol)-24)
			break
		}
		fmt.Println("  ", e)
	}
	fmt.Println()

	st := res.Stats
	fmt.Println("ACC protocol activity (32 shared lines, producer -> consumer -> host):")
	fmt.Println()
	show := func(label, counter string) {
		fmt.Printf("  %-46s %6d\n", label, st.Get(counter))
	}
	fmt.Println("producer (AXC-0):")
	show("L0X accesses", "l0x.0.accesses")
	show("read-lease + write-epoch misses", "l0x.0.misses")
	show("self-downgrades (epoch expiry writeback)", "l0x.0.self_downgrades")
	show("writebacks to L1X", "l0x.0.writebacks")
	fmt.Println("consumer (AXC-1):")
	show("L0X accesses", "l0x.1.accesses")
	show("hits under live leases", "l0x.1.hits")
	show("self-invalidations (lease lapsed, no message!)", "l0x.1.self_invalidations")
	fmt.Println("shared L1X (ordering point):")
	show("read leases granted", "l1x.grants_read")
	show("write epochs granted", "l1x.grants_write")
	show("requests stalled on a write epoch", "l1x.stall_wlock")
	show("writes stalled on foreign read leases (GTIME)", "l1x.stall_gtime")
	show("writebacks received", "l1x.writebacks_in")
	fmt.Println("host MESI integration:")
	show("forwarded host requests (via AX-RMAP)", "l1x.host_fwds")
	show("responses parked until GTIME expired", "l1x.fwd_stalled")
	show("AX-TLB lookups (miss path only)", "axtlb.lookups")
	show("AX-RMAP lookups", "axrmap.lookups")
	fmt.Println()
	fmt.Printf("total: %d cycles; no invalidation message ever reached an L0X.\n", res.Cycles)

	// And the data is right.
	want := fusion.ExpectedVersions(b)
	for va, wv := range want {
		if res.FinalVersions[va] != wv {
			fmt.Printf("DATA MISMATCH at %#x: v%d != v%d\n", uint64(va), res.FinalVersions[va], wv)
			return
		}
	}
	fmt.Println("final memory state matches sequential execution exactly.")
}
