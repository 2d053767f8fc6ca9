package cache

// EvictBuffer holds the lines a MESI agent has evicted but the directory
// has not yet acknowledged (PutM/PutE awaiting PutAck): each line address
// with the version and dirty bit it left with. While a line sits here the
// agent still answers a forward or an invalidation for it from the buffer,
// which resolves the eviction/forward race without extra directory states
// (Section 3.2, Figure 4 right). The host L1 (mesi.Client) and the tile's
// L1X each keep one.
//
// Only a handful of evictions are ever in flight, so the buffer is a
// linear list scanned by address: shorter than a map bucket walk, and a
// removal swaps the tail in.
type EvictBuffer struct {
	entries []evictEntry
}

type evictEntry struct {
	addr  uint64
	ver   uint64
	dirty bool
}

// find returns the index of addr's entry, or -1.
func (b *EvictBuffer) find(addr uint64) int {
	for i := range b.entries {
		if b.entries[i].addr == addr {
			return i
		}
	}
	return -1
}

// Put records that addr left with version ver, refreshing addr's entry if
// it already has one.
func (b *EvictBuffer) Put(addr, ver uint64, dirty bool) {
	if i := b.find(addr); i >= 0 {
		b.entries[i].ver, b.entries[i].dirty = ver, dirty
		return
	}
	b.entries = append(b.entries, evictEntry{addr, ver, dirty})
}

// Get returns addr's version and dirty bit and keeps the entry; ok is
// false (and ver, dirty zero) when addr is not buffered.
func (b *EvictBuffer) Get(addr uint64) (ver uint64, dirty, ok bool) {
	if i := b.find(addr); i >= 0 {
		e := b.entries[i]
		return e.ver, e.dirty, true
	}
	return 0, false, false
}

// Take is Get that also removes the entry. Order is irrelevant (every
// lookup is by address), so the tail entry moves into the hole.
func (b *EvictBuffer) Take(addr uint64) (ver uint64, dirty, ok bool) {
	i := b.find(addr)
	if i < 0 {
		return 0, false, false
	}
	e := b.entries[i]
	last := len(b.entries) - 1
	b.entries[i] = b.entries[last]
	b.entries = b.entries[:last]
	return e.ver, e.dirty, true
}

// Len returns the number of buffered lines.
func (b *EvictBuffer) Len() int { return len(b.entries) }
