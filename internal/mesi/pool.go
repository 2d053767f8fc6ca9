package mesi

import "fusion/internal/sim"

// msgTypePoison overwrites a released message's Type so any use-after-release
// trips the receiving controller's unexpected-message diagnostics instead of
// silently replaying a stale transaction.
const msgTypePoison MsgType = 0xFD

// MsgPool is a free list of coherence messages. A run's Fabric owns one
// (Fabric.Pool), and every agent on it — the directory, each client, each
// tile L1X's host side and the oracle DMA — draws fresh messages from it
// instead of allocating and releases each message it has handled into it.
// One shared list matters because traffic is lopsided: a host L1 sends a
// GetS and an Unblock for each Data it receives, so with a list per
// receiver the sender allocated on every request while its peer's list
// grew for the whole run. The engine is single-threaded and a pooled Msg
// carries no owner state, so any agent may release any message.
//
// Put panics (via sim.Failf, a *ProtocolError) on double release — the guard
// is a single flag check, cheap enough to stay on in every build, not just
// under -paranoid.
type MsgPool struct {
	free []*Msg
}

// Get returns a zeroed message. A nil pool degrades to plain allocation.
func (p *MsgPool) Get() *Msg {
	if p == nil || len(p.free) == 0 {
		return &Msg{}
	}
	n := len(p.free) - 1
	m := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	*m = Msg{}
	return m
}

// Put releases m for reuse. Releasing the same message twice is a protocol
// bug (two handlers both believed they owned it) and fails loudly. The
// released message's Type is poisoned so a retained alias is caught the next
// time anything inspects it. A nil pool accepts the release (the message
// falls back to the garbage collector) but still enforces the guard.
func (p *MsgPool) Put(m *Msg) {
	if m.pooled {
		sim.Failf("mesi.pool", 0, "", "double release of %s", m)
	}
	m.pooled = true
	m.Type = msgTypePoison
	if p == nil {
		return
	}
	p.free = append(p.free, m)
}
