// Package hotmapbad touches runtime maps from per-cycle entry points —
// every access hashes the key where a dense slot array or occupancy
// bitmap would cost an index.
package hotmapbad

type ctrl struct {
	txns    map[uint64]int
	waiting map[uint64][]int
}

// Tick is a per-cycle entry point: map hashing here runs once per
// simulated cycle.
func (c *ctrl) Tick(now uint64) {
	if c.txns[now] > 0 { // want "map index in hot function Tick"
		c.txns[now] = 0 // want "map index in hot function Tick"
	}
}

// Handle is a per-message entry point: ranges and deletes hash (and the
// range order is nondeterministic on top).
func (c *ctrl) Handle(a uint64) {
	for k := range c.waiting { // want "map range in hot function Handle"
		_ = k
	}
	delete(c.txns, a) // want "map delete in hot function Handle"
}

// AccessTimed is the fixed-latency twin of Access: it runs once per
// accelerator load or store.
func (c *ctrl) AccessTimed(a uint64) (uint64, bool) {
	return uint64(c.txns[a]), true // want "map index in hot function AccessTimed"
}

// Deliver's closures run per event and are just as hot.
func (c *ctrl) Deliver(m int) {
	fire := func() {
		c.txns[uint64(m)]++ // want "map index in hot function Deliver"
	}
	fire()
}

// worker is a hot free function (fusiond job-execution body).
func worker(jobs map[int]string) {
	_ = jobs[0] // want "map index in hot function worker"
}
