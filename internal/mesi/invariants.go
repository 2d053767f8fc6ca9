package mesi

// Runtime invariant checking for the host MESI protocol, mirroring the ACC
// checker in internal/acc: CheckInvariants cross-examines the directory's
// view against the actual cache contents of a set of clients.

import (
	"fmt"
	"sort"

	"fusion/internal/cache"
)

// CheckInvariants compares the directory's records with the clients'
// caches and returns every inconsistency found (empty means clean). Lines
// with in-flight transactions (busy at the directory, outstanding at a
// client, or in an eviction buffer) are skipped — transient states are
// allowed to disagree.
//
// Checked invariants on quiescent lines:
//
//  1. Single owner: at most one client holds a line in E or M.
//  2. Owner tracking: a client in E/M is the directory's recorded owner.
//  3. Exclusivity: no client holds S while another holds E/M.
//  4. Sharer soundness: a client holding S appears in the directory's
//     sharer set (the converse does not hold — S lines drop silently).
func CheckInvariants(dir *Directory, clients []*Client) []string {
	var bad []string

	type holder struct {
		id    AgentID
		state cache.State
	}
	holders := make(map[uint64][]holder)
	skip := make(map[uint64]bool)

	for _, c := range clients {
		c := c
		for _, a := range c.mshr.Outstanding() {
			skip[a] = true
		}
		c.arr.ForEach(func(l *cache.Line) {
			if l.Valid {
				holders[l.Addr] = append(holders[l.Addr], holder{c.id, l.State})
			}
		})
	}
	dir.entries.ForEach(func(a uint64, ep **dirEntry) {
		if e := *ep; e.busy || len(e.queue) > 0 {
			skip[a] = true
		}
	})

	// Sorted scan order keeps the violation report reproducible across runs.
	addrs := make([]uint64, 0, len(holders))
	for addr := range holders {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, addr := range addrs {
		hs := holders[addr]
		if skip[addr] || inEvictBuffer(clients, addr) {
			continue
		}
		e, _ := dir.entries.Get(addr)
		var owners, sharers []holder
		for _, h := range hs {
			switch h.state {
			case cache.Invalid:
				// An invalid way holds nothing; it is not a holder.
			case cache.Exclusive, cache.Modified:
				owners = append(owners, h)
			case cache.Shared:
				sharers = append(sharers, h)
			}
		}
		if len(owners) > 1 {
			bad = append(bad, fmt.Sprintf("line %#x has %d owners", addr, len(owners)))
		}
		if len(owners) == 1 && len(sharers) > 0 {
			bad = append(bad, fmt.Sprintf(
				"line %#x owned by agent %d while %d sharers hold S",
				addr, owners[0].id, len(sharers)))
		}
		if len(owners) == 1 {
			if e == nil || e.state != dirE || e.owner != owners[0].id {
				bad = append(bad, fmt.Sprintf(
					"line %#x: agent %d holds %v but the directory disagrees",
					addr, owners[0].id, owners[0].state))
			}
		}
		for _, sh := range sharers {
			if e == nil || e.state != dirS || !e.sharers.has(sh.id) {
				bad = append(bad, fmt.Sprintf(
					"line %#x: agent %d holds S but is not a recorded sharer",
					addr, sh.id))
			}
		}
	}
	return bad
}

// inEvictBuffer reports whether any client holds addr in its eviction buffer.
func inEvictBuffer(clients []*Client, addr uint64) bool {
	for _, c := range clients {
		if _, _, ok := c.evicting.Get(addr); ok {
			return true
		}
	}
	return false
}

// Quiesced reports whether the directory has no busy or queued lines (used
// by tests to decide when a full invariant sweep is meaningful).
func (dir *Directory) Quiesced() bool {
	quiet := true
	dir.entries.ForEach(func(_ uint64, ep **dirEntry) {
		if e := *ep; e.busy || len(e.queue) > 0 {
			quiet = false
		}
	})
	return quiet
}
