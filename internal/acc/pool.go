package acc

import "fusion/internal/sim"

// tileMsgPoison overwrites a released message's Type so use-after-release is
// caught by the receiving controller's unexpected-message diagnostics.
const tileMsgPoison TileMsgType = 0xFD

// TileMsgPool is a free list of intra-tile messages. Each Tile owns one,
// shared by its L1X and every L0X: a controller draws the messages it
// creates from it and releases the messages it consumes into it. One list
// per tile matters because intra-tile traffic is lopsided — an L0X's
// writebacks get no reply — so with a list per receiver the sender
// allocated on every send while its peer's list grew for the whole run.
// The engine is single-threaded and a pooled TileMsg carries no owner
// state, so any controller may release any message. The double-release
// guard (one flag check) is always on; see mesi.MsgPool for the same
// design on the host fabric.
type TileMsgPool struct {
	free []*TileMsg
}

// Get returns a zeroed message. A nil pool degrades to plain allocation.
func (p *TileMsgPool) Get() *TileMsg {
	if p == nil || len(p.free) == 0 {
		return &TileMsg{}
	}
	n := len(p.free) - 1
	m := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	*m = TileMsg{}
	return m
}

// Put releases m for reuse, failing loudly (sim.Failf) on a double release
// and poisoning the Type so retained aliases are caught.
func (p *TileMsgPool) Put(m *TileMsg) {
	if m.pooled {
		sim.Failf("acc.pool", 0, "", "double release of %s", m)
	}
	m.pooled = true
	m.Type = tileMsgPoison
	if p == nil {
		return
	}
	p.free = append(p.free, m)
}
