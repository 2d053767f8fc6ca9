package mesi

import (
	"fusion/internal/energy"
	"fusion/internal/faults"
	"fusion/internal/interconnect"
	"fusion/internal/sim"
	"fusion/internal/stats"
)

// Endpoint receives messages addressed to one agent.
type Endpoint func(*Msg)

// MaxAgents bounds the fabric's dense route table. It matches sharerSet's
// 32-agent bitmask cap, so the bound is already a protocol-wide invariant.
const MaxAgents = 32

// Route describes the wire between a pair of agents.
type Route struct {
	Latency   uint64
	PJPerByte float64
	// FlitsPerCycle bounds the route's bandwidth; back-to-back messages
	// serialize (a 72-byte data message occupies 9 cycles at 1 flit/cycle).
	// Zero means unlimited.
	FlitsPerCycle uint64
	// Category is the energy.Meter bucket this route's traffic lands in.
	Category energy.Cat
	// StatName names the route's link: its msgs/bytes/flits/ctrl/data
	// counters and its fault-injection site. Empty means "fabric".
	StatName string
}

// defaultRoute is the wire of a pair with no explicit route.
var defaultRoute = Route{Latency: 8, PJPerByte: 6.0, Category: energy.CatLinkHost}

// Fabric is the host-side message network: a full crossbar whose every
// directed route is an interconnect.Link, so host routes and tile links
// share one wire model. Each route delivers in send order.
type Fabric struct {
	eng     *sim.Engine
	meter   *energy.Meter
	stats   *stats.Set
	inj     *faults.Injector
	cFaults *stats.Counter

	// pool is the free list every agent on the fabric draws its messages
	// from and releases them into.
	pool MsgPool

	endpoints [MaxAgents]Endpoint
	// links holds the route src->dst at src*MaxAgents+dst, nil until the
	// pair is routed; an unrouted pair takes defaultRoute on its first send.
	links [MaxAgents * MaxAgents]*interconnect.Link
}

// NewFabric builds an empty fabric.
func NewFabric(eng *sim.Engine, meter *energy.Meter, st *stats.Set) *Fabric {
	return &Fabric{eng: eng, meter: meter, stats: st, cFaults: st.Counter("fabric.faults")}
}

// SetInjector attaches (or clears) a fault injector on every route, present
// and future; the plan's order-preserving link faults then perturb every
// delivery.
func (f *Fabric) SetInjector(inj *faults.Injector) {
	f.inj = inj
	for _, l := range f.links {
		if l != nil {
			l.SetInjector(inj)
		}
	}
}

func (f *Fabric) checkID(id AgentID) {
	if id >= MaxAgents {
		sim.Failf("mesi.fabric", f.eng.Now(), "",
			"agent %d exceeds the %d-agent fabric cap", id, MaxAgents)
	}
}

// Register attaches an endpoint for agent id.
func (f *Fabric) Register(id AgentID, ep Endpoint) {
	f.checkID(id)
	if f.endpoints[id] != nil {
		sim.Failf("mesi.fabric", f.eng.Now(), "", "agent %d registered twice", id)
	}
	f.endpoints[id] = ep
}

// SetRoute installs a route for src->dst (directional). The route starts
// with an idle wire, so set routes before traffic starts.
func (f *Fabric) SetRoute(src, dst AgentID, r Route) {
	f.checkID(src)
	f.checkID(dst)
	f.links[int(src)*MaxAgents+int(dst)] = f.newLink(dst, r)
}

// SetRoutePair installs the same route in both directions.
func (f *Fabric) SetRoutePair(a, b AgentID, r Route) {
	f.SetRoute(a, b, r)
	f.SetRoute(b, a, r)
}

// Faults counts the injected delays on every route.
func (f *Fabric) Faults() int64 { return f.cFaults.Value() }

// Link returns the route src->dst, nil while the pair is unrouted. Both
// directions of a SetRoutePair, and every route sharing a StatName, feed
// one counter set, so the link's Traffic is its whole group's.
func (f *Fabric) Link(src, dst AgentID) *interconnect.Link {
	return f.links[int(src)*MaxAgents+int(dst)]
}

// newLink builds the wire of a route into dst. The link is named by the
// route's StatName ("fabric" when empty), which keys both its traffic
// counters and its fault-injection site, so both directions of a
// SetRoutePair (and any routes sharing a name) feed one counter set.
// Injected delays on every route count in fabric.faults.
func (f *Fabric) newLink(dst AgentID, r Route) *interconnect.Link {
	name := r.StatName
	if name == "" {
		name = "fabric"
	}
	return interconnect.NewLink(f.eng, interconnect.Config{
		Name:          name,
		Latency:       r.Latency,
		FlitsPerCycle: r.FlitsPerCycle,
		PJPerByte:     r.PJPerByte,
		Meter:         f.meter,
		MeterCategory: r.Category,
		Stats:         f.stats,
		Faults:        f.cFaults,
		Injector:      f.inj,
		Deliver:       func(m interconnect.Message) { f.endpoints[dst](m.(*Msg)) },
	})
}

// Send hands m to its route, which accounts energy and traffic and
// schedules the delivery.
func (f *Fabric) Send(m *Msg) {
	f.checkID(m.Src)
	f.checkID(m.Dst)
	if f.endpoints[m.Dst] == nil {
		sim.Failf("mesi.fabric", f.eng.Now(), "",
			"no endpoint for agent %d (msg %s)", m.Dst, m)
	}
	i := int(m.Src)*MaxAgents + int(m.Dst)
	if f.links[i] == nil {
		f.links[i] = f.newLink(m.Dst, defaultRoute)
	}
	f.links[i].Send(m)
}

// Pool returns the fabric's message free list, shared by every agent on it.
func (f *Fabric) Pool() *MsgPool { return &f.pool }

// Now exposes the engine clock to protocol controllers.
func (f *Fabric) Now() uint64 { return f.eng.Now() }

// Engine returns the underlying simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }
