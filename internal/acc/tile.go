package acc

import (
	"fmt"
	"strings"

	"fusion/internal/cache"
	"fusion/internal/energy"
	"fusion/internal/faults"
	"fusion/internal/interconnect"
	"fusion/internal/mem"
	"fusion/internal/mesi"
	"fusion/internal/obs"
	"fusion/internal/sim"
	"fusion/internal/stats"
	"fusion/internal/vm"
)

// TileConfig assembles a FUSION accelerator tile.
type TileConfig struct {
	NumAXCs int
	PID     mem.PID
	Agent   mesi.AgentID // the tile's MESI agent ID on the host fabric
	// StatPrefix distinguishes multiple tiles' counters ("" for the first
	// tile keeps the canonical names; "t1." etc. for additional tiles).
	StatPrefix string

	L0X L0XConfig
	L1X L1XConfig

	// Link parameters within the tile (Table 2: 0.4 pJ/B L0X<->L1X; the
	// direct forwarding path costs 0.1 pJ/B, Section 5.4).
	L0XL1XLatency uint64
	FwdLatency    uint64
	// EnableDx creates the direct L0X<->L0X links (FUSION-Dx).
	EnableDx bool

	TLBEntries int
	TLBWalkLat uint64

	// Injector, when non-nil, perturbs every intra-tile link with the
	// deterministic order-preserving faults of its plan.
	Injector *faults.Injector
}

// SmallTileConfig is the paper's baseline: 4 KB L0X, 64 KB L1X.
func SmallTileConfig(numAXCs int, model energy.Model) TileConfig {
	return TileConfig{
		NumAXCs: numAXCs,
		PID:     1,
		L0X: L0XConfig{
			Cache:      cache.Params{SizeBytes: 4 << 10, Ways: 4, LineBytes: mem.LineBytes},
			MSHRs:      8,
			HitLatency: 1,
			LeaseTime:  500,
			AccessPJ:   model.WithTimestamp(model.L0XAccessSmall),
		},
		L1X: L1XConfig{
			Cache:     cache.Params{SizeBytes: 64 << 10, Ways: 8, LineBytes: mem.LineBytes},
			Banks:     16,
			MSHRs:     16,
			AccessLat: 2,
			AccessPJ:  model.L1XAccessSmall,
		},
		L0XL1XLatency: 2,
		FwdLatency:    2,
		TLBEntries:    32,
		TLBWalkLat:    40,
	}
}

// LargeTileConfig is the AXC-Large configuration of Section 5.5: 8 KB L0X
// and a 256 KB L1X with higher access energy and latency.
func LargeTileConfig(numAXCs int, model energy.Model) TileConfig {
	cfg := SmallTileConfig(numAXCs, model)
	cfg.L0X.Cache.SizeBytes = 8 << 10
	cfg.L0X.AccessPJ = model.WithTimestamp(model.L0XAccessLarge)
	cfg.L1X.Cache.SizeBytes = 256 << 10
	cfg.L1X.AccessPJ = model.L1XAccessLarge
	cfg.L1X.AccessLat = 4 // "2 cycles more than L1X-Small"
	return cfg
}

// Tile is an assembled FUSION accelerator tile.
type Tile struct {
	L0Xs []*L0X
	L1X  *L1X
	TLB  *vm.TLB
	RMAP *vm.RMAP

	// pool is the tile's one intra-tile message free list, shared by the
	// L1X and every L0X.
	pool TileMsgPool
}

// NewTile builds the tile: one L0X per accelerator, the shared L1X, the
// AX-TLB and AX-RMAP, and all intra-tile links. The tile registers as
// cfg.Agent on the host fabric.
func NewTile(eng *sim.Engine, fabric *mesi.Fabric, pt *vm.PageTable,
	cfg TileConfig, model energy.Model, meter *energy.Meter, st *stats.Set) *Tile {

	tlb := vm.NewTLB(cfg.StatPrefix+"axtlb", cfg.TLBEntries, cfg.TLBWalkLat, pt, model, meter, st)
	rmap := vm.NewRMAP(cfg.StatPrefix+"axrmap", model, meter, st)

	// Sub-configs inherit the tile's stat prefix so counters intern with
	// their final names at construction.
	l1cfg := cfg.L1X
	l1cfg.StatPrefix = cfg.StatPrefix
	l0cfg := cfg.L0X
	l0cfg.StatPrefix = cfg.StatPrefix

	l1x := NewL1X(eng, fabric, cfg.Agent, l1cfg, tlb, rmap, meter, st)

	t := &Tile{L1X: l1x, TLB: tlb, RMAP: rmap}
	l1x.tilePool = &t.pool

	for i := 0; i < cfg.NumAXCs; i++ {
		l0 := NewL0X(eng, AXCID(i), cfg.PID, l0cfg, meter, st)
		l0.pool = &t.pool
		// Uplink: L0X -> L1X.
		up := interconnect.NewLink(eng, interconnect.Config{
			Name:          fmt.Sprintf("%slink.l0x%d.up", cfg.StatPrefix, i),
			Latency:       cfg.L0XL1XLatency,
			PJPerByte:     model.LinkL0XL1X,
			Meter:         meter,
			MeterCategory: energy.CatLinkTile,
			Stats:         st,
			Deliver:       l1x.HandleTile,
			Injector:      cfg.Injector,
		})
		l0.ConnectL1X(up)
		// Downlink: L1X -> L0X.
		down := interconnect.NewLink(eng, interconnect.Config{
			Name:          fmt.Sprintf("%slink.l0x%d.down", cfg.StatPrefix, i),
			Latency:       cfg.L0XL1XLatency,
			PJPerByte:     model.LinkL0XL1X,
			Meter:         meter,
			MeterCategory: energy.CatLinkTile,
			Stats:         st,
			Deliver:       l0.Handle,
			Injector:      cfg.Injector,
		})
		l1x.ConnectL0X(AXCID(i), down)
		t.L0Xs = append(t.L0Xs, l0)
	}

	if cfg.EnableDx {
		for i := 0; i < cfg.NumAXCs; i++ {
			for j := 0; j < cfg.NumAXCs; j++ {
				if i == j {
					continue
				}
				dst := t.L0Xs[j]
				fwd := interconnect.NewLink(eng, interconnect.Config{
					Name:          fmt.Sprintf("%slink.fwd.%d.%d", cfg.StatPrefix, i, j),
					Latency:       cfg.FwdLatency,
					PJPerByte:     model.LinkL0XL0X,
					Meter:         meter,
					MeterCategory: energy.CatLinkFwd,
					Stats:         st,
					Deliver:       dst.Handle,
					Injector:      cfg.Injector,
				})
				t.L0Xs[i].ConnectPeer(AXCID(j), fwd)
			}
		}
	}
	return t
}

// SetObserver attaches an observer to every controller in the tile (nil
// disables observation).
func (t *Tile) SetObserver(o obs.Observer) {
	t.L1X.SetObserver(o)
	for _, l0 := range t.L0Xs {
		l0.SetObserver(o)
	}
}

// SetMutations arms test-only protocol mutations on every controller in
// the tile (nil disables them; see Mutations).
func (t *Tile) SetMutations(m *Mutations) {
	t.L1X.SetMutations(m)
	for _, l0 := range t.L0Xs {
		l0.SetMutations(m)
	}
}

// Drain flushes every L0X (invocation end for all accelerators).
func (t *Tile) Drain() {
	for _, l0 := range t.L0Xs {
		l0.Drain()
	}
}

// DumpState concatenates the tile controllers' diagnostics (watchdog dumps).
func (t *Tile) DumpState() string {
	var b strings.Builder
	b.WriteString(t.L1X.DumpState())
	for _, l0 := range t.L0Xs {
		b.WriteString(l0.DumpState())
	}
	return b.String()
}

// ForwardedBlocks sums the Dx forwards every L0X of the tile has sent.
func (t *Tile) ForwardedBlocks() int64 {
	var n int64
	for _, l0 := range t.L0Xs {
		n += l0.cFwdOut.Value()
	}
	return n
}

// Links sums the traffic of the tile's L0X->L1X uplinks and L1X->L0X
// downlinks.
func (t *Tile) Links() (up, down interconnect.Traffic) {
	for i, l0 := range t.L0Xs {
		up = up.Add(l0.toL1X.Traffic())
		down = down.Add(t.L1X.toL0X[i].Traffic())
	}
	return up, down
}

// Faults sums the injected delays on every link of the tile.
func (t *Tile) Faults() (n int64) {
	for i, l0 := range t.L0Xs {
		n += l0.toL1X.Faults() + t.L1X.toL0X[i].Faults()
		for _, fwd := range l0.fwdTo {
			if fwd != nil {
				n += fwd.Faults()
			}
		}
	}
	return n
}

// Outstanding sums in-flight transactions across the tile.
func (t *Tile) Outstanding() int {
	n := t.L1X.Outstanding()
	for _, l0 := range t.L0Xs {
		n += l0.Outstanding()
	}
	return n
}
