// Package service implements fusiond: a crash-safe sweep service over the
// simulator. It exposes benchmark x system x config grid queries over
// HTTP/JSON, schedules the cells on a bounded worker pool with
// singleflight coalescing, enforces per-job cycle and wall-time budgets,
// converts every simulator failure — including escaped panics — into a
// structured per-cell result (a request can fail; the daemon cannot), and
// persists successful cells in a content-addressed, checksummed on-disk
// cache that survives crashes and quarantines corruption.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"

	"fusion/internal/mem"
	"fusion/internal/sim"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// CellResult is the service's unit of work and of caching: one simulated
// (benchmark, system, knobs) cell, reduced to scalar measurements plus
// digests of the bulky deterministic state. Field order is the canonical
// JSON order; Marshal of the same run is byte-identical everywhere —
// fresh, cached, or replayed on another machine.
type CellResult struct {
	Spec systems.Spec `json:"spec"`
	// Hash is the spec's content address — the cache key.
	Hash string `json:"hash"`

	Cycles    uint64  `json:"cycles,omitempty"`
	DMACycles uint64  `json:"dma_cycles,omitempty"`
	EnergyPJ  float64 `json:"energy_pj,omitempty"`
	DMABytes  int64   `json:"dma_bytes,omitempty"`
	Forwarded int64   `json:"forwarded_blocks,omitempty"`

	// LinesChecked/LinesBad compare the run's final memory image against
	// the sequential golden model — the service re-verifies every cell it
	// serves.
	LinesChecked int `json:"lines_checked,omitempty"`
	LinesBad     int `json:"lines_bad,omitempty"`
	// VersionsDigest and StatsDigest are order-canonicalized SHA-256
	// digests of the final memory image and the full counter set; byte
	// equality of two cells implies the underlying runs were identical.
	VersionsDigest string `json:"versions_digest,omitempty"`
	StatsDigest    string `json:"stats_digest,omitempty"`

	// Error describes a failed run (budget, deadline, protocol violation,
	// recovered panic); Component and ErrCycle localize it. A cell with a
	// non-empty Error has no measurements and is never cached.
	Error     string `json:"error,omitempty"`
	Component string `json:"component,omitempty"`
	ErrCycle  uint64 `json:"err_cycle,omitempty"`
}

// Failed reports whether the cell describes a failed run.
func (c *CellResult) Failed() bool { return c.Error != "" }

// Marshal returns the canonical JSON encoding of the cell. Encoding a
// CellResult cannot fail (fixed field types, no cycles), so the error is
// dropped by construction.
func (c *CellResult) Marshal() []byte {
	b, err := json.Marshal(c)
	if err != nil {
		// Unreachable: every field is a plain serializable type.
		return []byte(fmt.Sprintf(`{"hash":%q,"error":%q}`, c.Hash, err.Error()))
	}
	return b
}

// BuildCell runs one spec to completion under ctx and reduces it to a
// CellResult. It never returns an error and never panics: simulator
// failures — structured protocol errors, cancellation, and any foreign
// panic escaping the engine — are folded into the cell's Error fields.
// The result is deterministic: two BuildCell calls for the same spec
// produce byte-identical Marshal output.
func BuildCell(ctx context.Context, s systems.Spec) (cell *CellResult) {
	n := s.Normalized()
	cell = &CellResult{Spec: n, Hash: n.Hash()}
	defer func() {
		if r := recover(); r != nil {
			pe := sim.PanicError("service.worker", 0, r, string(debug.Stack()))
			fillError(cell, pe)
		}
	}()
	if err := s.Validate(); err != nil {
		fillError(cell, err)
		return cell
	}
	b := workloads.Get(n.Bench)
	res, err := systems.RunCtx(ctx, b, systems.Config{Spec: n})
	if err != nil {
		fillError(cell, err)
		return cell
	}
	fillMeasurements(cell, b, res)
	return cell
}

// fillError records a failed run on the cell, surfacing the protocol
// error's component and cycle when the failure carries them.
func fillError(c *CellResult, err error) {
	c.Error = err.Error()
	var pe *sim.ProtocolError
	if errors.As(err, &pe) {
		c.Component = pe.Component
		c.ErrCycle = pe.Cycle
	}
}

// fillMeasurements reduces a completed run to the cell's scalars and
// digests, re-verifying the final memory image against the sequential
// golden model.
func fillMeasurements(c *CellResult, b *workloads.Benchmark, res *systems.Result) {
	c.Cycles = res.Cycles
	c.DMACycles = res.DMACycles
	c.EnergyPJ = res.Energy.Total()
	c.DMABytes = res.DMABytes
	c.Forwarded = res.ForwardedBlocks

	want := systems.ExpectedVersions(b)
	addrs := make([]mem.VAddr, 0, len(want))
	for a := range want {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	h := sha256.New()
	var buf [16]byte
	for _, a := range addrs {
		c.LinesChecked++
		got := res.FinalVersions[a]
		if got != want[a] {
			c.LinesBad++
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(a))
		binary.LittleEndian.PutUint64(buf[8:], got)
		h.Write(buf[:])
	}
	c.VersionsDigest = hex.EncodeToString(h.Sum(nil))

	names := res.Stats.Names()
	sort.Strings(names)
	h = sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s=%d\n", name, res.Stats.Get(name))
	}
	c.StatsDigest = hex.EncodeToString(h.Sum(nil))
}
