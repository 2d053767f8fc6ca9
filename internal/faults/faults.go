// Package faults provides seeded, deterministic fault injection for the
// simulator: extra delivery delay jitter and transient stall windows on
// interconnect links, and service-latency spikes in DRAM.
//
// Faults are strictly order-preserving and performance-only: a correct
// cache hierarchy must absorb any plan with degraded cycle counts but
// bit-identical final memory state. That property is what the soak harness
// in internal/systems leans on — randomized plans across every system and
// benchmark with the golden final-memory check still enforced.
//
// Determinism: every decision is drawn either from a pure hash of
// (seed, site, cycle-window) — stall windows, which must not depend on
// traffic — or from a per-site counter stream seeded by (seed, site) —
// per-message jitter, consumed in the engine's deterministic event order.
// Two runs of the same (benchmark, system, plan) therefore inject exactly
// the same faults at exactly the same points, so any failing run is
// reproducible from its plan alone.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"fusion/internal/sim"
)

// Plan is a serializable description of the faults to inject. The zero
// value injects nothing. Probabilities are in [0,1]; zero disables the
// corresponding fault class.
type Plan struct {
	// Seed roots every pseudo-random stream in the plan.
	Seed uint64 `json:"seed"`

	// LinkJitterProb is the per-message probability that a link delivery
	// is delayed by an extra 1..LinkJitterMax cycles. Order is preserved:
	// a delayed message also delays everything sent after it on the same
	// link.
	LinkJitterProb float64 `json:"link_jitter_prob,omitempty"`
	LinkJitterMax  uint64  `json:"link_jitter_max,omitempty"`

	// Transient link stalls: time is divided into windows of
	// LinkStallEvery cycles; in each window each link independently
	// stalls (delivers nothing new) for the first LinkStallLen cycles
	// with probability LinkStallProb — a backpressure burst.
	LinkStallProb  float64 `json:"link_stall_prob,omitempty"`
	LinkStallEvery uint64  `json:"link_stall_every,omitempty"`
	LinkStallLen   uint64  `json:"link_stall_len,omitempty"`

	// DRAM latency spikes: each command's service latency grows by
	// DRAMSpikeExtra cycles with probability DRAMSpikeProb (a refresh or
	// a thermally-throttled rank, as seen by the controller).
	DRAMSpikeProb  float64 `json:"dram_spike_prob,omitempty"`
	DRAMSpikeExtra uint64  `json:"dram_spike_extra,omitempty"`
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return (p.LinkJitterProb > 0 && p.LinkJitterMax > 0) ||
		(p.LinkStallProb > 0 && p.LinkStallEvery > 0 && p.LinkStallLen > 0) ||
		(p.DRAMSpikeProb > 0 && p.DRAMSpikeExtra > 0)
}

// RandomPlan derives a moderate randomized plan from a seed — the soak
// harness's generator. All fault classes are active with intensities that a
// correct hierarchy must absorb (delays only, no loss, no reordering).
func RandomPlan(seed uint64) Plan {
	s := splitmix64(seed ^ 0x9e3779b97f4a7c15)
	r := func() uint64 { s = splitmix64(s); return s }
	f01 := func() float64 { return float64(r()>>11) / (1 << 53) }
	return Plan{
		Seed:           seed,
		LinkJitterProb: 0.05 + 0.25*f01(),
		LinkJitterMax:  1 + r()%16,
		LinkStallProb:  0.05 + 0.15*f01(),
		LinkStallEvery: 512 + r()%1536,
		LinkStallLen:   8 + r()%120,
		DRAMSpikeProb:  0.02 + 0.10*f01(),
		DRAMSpikeExtra: 64 + r()%448,
	}
}

// Save writes the plan as JSON.
func (p Plan) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// LoadPlan reads a JSON plan.
func LoadPlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("faults: decoding plan: %w", err)
	}
	return p, nil
}

// LoadPlanFile reads a JSON plan from a file.
func LoadPlanFile(path string) (Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return Plan{}, err
	}
	defer f.Close()
	return LoadPlan(f)
}

// Injector executes a Plan. A nil *Injector is valid and injects nothing,
// so components can hold one unconditionally. Not safe for concurrent use —
// like the engine it serves, it is single-threaded by design.
type Injector struct {
	plan    Plan
	streams map[string]*stream

	// injection counters, for observability in dumps and tests
	linkJitters uint64
	linkStalls  uint64
	dramSpikes  uint64
}

// stream is a per-site splitmix64 counter stream.
type stream struct{ state uint64 }

func (s *stream) next() uint64 {
	s.state = splitmix64(s.state)
	return s.state
}

func (s *stream) chance(p float64) bool {
	return float64(s.next()>>11)/(1<<53) < p
}

// NewInjector builds an injector for the plan.
func NewInjector(p Plan) *Injector {
	return &Injector{plan: p, streams: make(map[string]*stream)}
}

// Plan returns the injector's plan.
func (i *Injector) Plan() Plan { return i.plan }

func (i *Injector) stream(site string) *stream {
	s, ok := i.streams[site]
	if !ok {
		s = &stream{state: splitmix64(i.plan.Seed ^ fnv1a(site))}
		i.streams[site] = s
	}
	return s
}

// LinkDelay returns the extra delivery delay, in cycles, for a message sent
// on the named link at cycle now: any remaining transient-stall window plus
// per-message jitter. Callers must fold the result into their existing FIFO
// serialization so order is preserved.
func (i *Injector) LinkDelay(link string, now uint64) uint64 {
	if i == nil {
		return 0
	}
	var extra uint64
	p := i.plan
	if p.LinkStallProb > 0 && p.LinkStallEvery > 0 && p.LinkStallLen > 0 {
		// Stall windows are a pure function of (seed, link, window) so a
		// link's stall schedule does not depend on its traffic.
		w := now / p.LinkStallEvery
		h := splitmix64(p.Seed ^ fnv1a(link) ^ splitmix64(w^0xb5297a4d))
		if float64(h>>11)/(1<<53) < p.LinkStallProb {
			end := sim.SatAdd(w*p.LinkStallEvery, p.LinkStallLen)
			if end > now {
				extra += end - now
				i.linkStalls++
			}
		}
	}
	if p.LinkJitterProb > 0 && p.LinkJitterMax > 0 {
		s := i.stream(link)
		if s.chance(p.LinkJitterProb) {
			extra = sim.SatAdd(extra, 1+s.next()%p.LinkJitterMax)
			i.linkJitters++
		}
	}
	return extra
}

// DRAMDelay returns the extra service latency for one DRAM command on the
// given channel.
func (i *Injector) DRAMDelay(channel int) uint64 {
	if i == nil {
		return 0
	}
	p := i.plan
	if p.DRAMSpikeProb <= 0 || p.DRAMSpikeExtra == 0 {
		return 0
	}
	s := i.stream(fmt.Sprintf("dram.ch%d", channel))
	if s.chance(p.DRAMSpikeProb) {
		i.dramSpikes++
		return p.DRAMSpikeExtra
	}
	return 0
}

// Counts reports how many faults of each class have been injected so far.
func (i *Injector) Counts() (linkJitters, linkStalls, dramSpikes uint64) {
	if i == nil {
		return 0, 0, 0
	}
	return i.linkJitters, i.linkStalls, i.dramSpikes
}

// splitmix64 is the standard 64-bit finalizing mixer (Vigna) — a tiny,
// dependency-free PRNG step with excellent avalanche behaviour.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fnv1a hashes a site name to a stream seed.
func fnv1a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
