// Package mesi implements the host-side coherence substrate of the Fusion
// system: a blocking, directory-based, 3-hop MESI protocol at the shared L2
// (8-bank NUCA, Table 2), the host L1D controller that speaks it, and the
// message fabric connecting the agents.
//
// The accelerator tile's shared L1X (internal/acc) joins this protocol as
// one more agent — restricted to the MEI subset, always requesting
// exclusive — by registering its HandleMESI endpoint on the Fabric. The oracle
// DMA engine of the SCRATCH baseline uses the dedicated DMARead/DMAWrite
// transactions, which the directory completes itself (invalidating or
// downgrading caches as needed) without making the DMA a caching agent.
package mesi

import (
	"fmt"

	"fusion/internal/mem"
)

// AgentID names an endpoint on the coherence fabric. The directory is
// always agent 0.
type AgentID uint8

// DirID is the directory/L2 controller's agent ID.
const DirID AgentID = 0

// MsgType enumerates the protocol messages.
type MsgType uint8

const (
	// Requests to the directory.
	MsgGetS MsgType = iota // read miss
	MsgGetM                // write miss or S->M upgrade
	MsgPutM                // dirty eviction, carries data
	MsgPutE                // clean-exclusive eviction notice
	// Directory to caches.
	MsgFwdGetS // downgrade owner, send data to requester
	MsgFwdGetM // invalidate owner, transfer M to requester
	MsgInv     // invalidate a sharer; ack goes to Msg.Requester
	MsgPutAck  // eviction acknowledged
	// Data responses.
	MsgData  // shared data (may carry AckCount for GetM)
	MsgDataE // exclusive clean data (no other sharers)
	MsgDataM // modified data with ownership transfer
	// Acks.
	MsgInvAck   // sharer -> requester after MsgInv
	MsgOwnerAck // previous owner -> directory after a Fwd (may carry data)
	MsgUnblock  // requester -> directory: transaction complete
	// Oracle-DMA transactions (directory-collected).
	MsgDMARead
	MsgDMAReadResp
	MsgDMAWrite
	MsgDMAWriteAck
)

var msgNames = map[MsgType]string{
	MsgGetS: "GetS", MsgGetM: "GetM", MsgPutM: "PutM", MsgPutE: "PutE",
	MsgFwdGetS: "FwdGetS", MsgFwdGetM: "FwdGetM", MsgInv: "Inv",
	MsgPutAck: "PutAck", MsgData: "Data", MsgDataE: "DataE", MsgDataM: "DataM",
	MsgInvAck: "InvAck", MsgOwnerAck: "OwnerAck", MsgUnblock: "Unblock",
	MsgDMARead: "DMARead", MsgDMAReadResp: "DMAReadResp",
	MsgDMAWrite: "DMAWrite", MsgDMAWriteAck: "DMAWriteAck",
}

func (t MsgType) String() string {
	if s, ok := msgNames[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// HasData reports whether this message type carries a cache line.
func (t MsgType) HasData() bool {
	switch t {
	case MsgPutM, MsgData, MsgDataE, MsgDataM, MsgDMAReadResp, MsgDMAWrite:
		return true
	case MsgOwnerAck:
		// OwnerAck carries data only when the owner was dirty; that case is
		// flagged per message (Msg.Dirty), not per type.
		return false
	default:
		// Requests, forwards, and acks are control-only.
		return false
	}
}

// Msg is one coherence message.
type Msg struct {
	Type MsgType
	Addr mem.PAddr // line-aligned physical address
	Src  AgentID
	Dst  AgentID
	// Requester is the agent a third party must answer: Inv carries the
	// GetM requester so the sharer's InvAck goes straight there (3-hop).
	Requester AgentID
	// AckCount, on a Data response to GetM, is the number of InvAcks the
	// requester must collect before writing.
	AckCount int
	// Excl, on Unblock, reports the requester ended in M/E rather than S.
	Excl bool
	// Dirty, on OwnerAck, means the previous owner had modified data which
	// this message carries back to the directory.
	Dirty bool
	// Dropped, on OwnerAck, means the previous owner invalidated its copy
	// (the accelerator tile always does; a host L1 keeps S on FwdGetS).
	Dropped bool
	// Ver is the modeled payload version for messages that carry data.
	Ver uint64
	// Delta, on DMAWrite, means Ver is an increment to accumulate onto the
	// backing store rather than an absolute version. The oracle DMA uses it
	// for write-allocated scratchpad lines whose base version was never
	// fetched (only read data is DMA'd in, Section 4).
	Delta bool

	// pooled marks a message currently sitting in a MsgPool free list; the
	// pool's double-release guard checks it.
	pooled bool
}

// Bytes implements interconnect.Message: one 8-byte control flit, plus a
// 64-byte line when data rides along.
func (m *Msg) Bytes() int {
	if m.Type.HasData() || (m.Type == MsgOwnerAck && m.Dirty) {
		return 8 + mem.LineBytes
	}
	return 8
}

func (m *Msg) String() string {
	return fmt.Sprintf("%s %s %d->%d v%d", m.Type, m.Addr, m.Src, m.Dst, m.Ver)
}
