// Package msg defines the protocol's message vocabulary as exported types.
//
// The structs here are the single source of truth for what goes over the
// air: the simulator (internal/core) and the daemon use them as their
// payload types, and the wire codec (internal/wire) encodes exactly these
// shapes. The package
// depends only on internal/addrspace and internal/radio so that both the
// simulation stack and the real transports can import it without cycles.
//
// Message type names match the paper's vocabulary (§IV, Table 1) where it
// names them. They appear in traces, tests and the wire format's type table.
package msg

import (
	"fmt"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

// Message type names.
const (
	TFirstBcast = "FIRST_BCAST" // first node's configuration broadcast
	TFirstResp  = "FIRST_RESP"  // configured neighbor answering a FIRST_BCAST

	TComReq = "COM_REQ" // common-node configuration request
	TComCfg = "COM_CFG" // configuration grant with the assigned address
	TComAck = "COM_ACK" // requestor's acknowledgement
	TNack   = "CFG_NACK"

	TChReq = "CH_REQ" // cluster-head configuration request
	TChPrp = "CH_PRP" // allocator's block proposal
	TChCnf = "CH_CNF" // requestor's confirmation
	TChCfg = "CH_CFG" // block grant
	TChAck = "CH_ACK"

	TQuorumClt = "QUORUM_CLT" // vote collection
	TQuorumCfm = "QUORUM_CFM" // vote
	TQuorumUpd = "QUORUM_UPD" // committed write propagated to the quorum
	TSplitUpd  = "SPLIT_UPD"  // block split propagated to replica holders

	TReplicaDist = "REPLICA_DIST" // a head distributing its IPSpace replica
	TReplicaAck  = "REPLICA_ACK"  // holder's reciprocal replica

	TAgentFwd = "AGENT_FWD" // depleted head relaying a request (§V-A)
	TAgentCfg = "AGENT_CFG" // grant relayed back through the agent

	TUpdateLoc = "UPDATE_LOC" // common-node location update (§IV-C1)

	TReturnAddr  = "RETURN_ADDR" // graceful common-node departure
	TDepartAck   = "DEPART_ACK"
	TReturnFwd   = "RETURN_FWD" // routing a returned address to its allocator
	TVacate      = "VACATE"     // vacate notice broadcast to adjacent heads
	TChReturn    = "CH_RETURN"  // head returning its IP block on departure
	TChReturnAck = "CH_RETURN_ACK"
	TChResign    = "CH_RESIGN" // head resigning from a QDSet
	TReassign    = "REASSIGN"  // new allocator notice to orphaned members
	TPoolUpd     = "POOL_UPD"  // holder refresh after a pool absorbs a block

	TRepReq = "REP_REQ" // liveness probe after quorum shrink (§V-B)
	TRepRsp = "REP_RSP"

	TAddrRec = "ADDR_REC" // address reclamation broadcast (§IV-D)
	TRecRep  = "REC_REP"  // surviving member's existence report
	TRecFwd  = "REC_FWD"  // forwarding a report toward a replica holder

	TReconfig = "RECONFIG" // partition handling: node must reacquire an IP
)

// Types lists every message type name in a stable order (the wire codec's
// type table is built from this).
func Types() []string {
	return []string{
		TFirstBcast, TFirstResp,
		TComReq, TComCfg, TComAck, TNack,
		TChReq, TChPrp, TChCnf, TChCfg, TChAck,
		TQuorumClt, TQuorumCfm, TQuorumUpd, TSplitUpd,
		TReplicaDist, TReplicaAck,
		TAgentFwd, TAgentCfg,
		TUpdateLoc,
		TReturnAddr, TDepartAck, TReturnFwd, TVacate,
		TChReturn, TChReturnAck, TChResign, TReassign, TPoolUpd,
		TRepReq, TRepRsp,
		TAddrRec, TRecRep, TRecFwd,
		TReconfig,
	}
}

// NetTag identifies a network (partition). The paper uses the lowest IP
// address in the network; two independently founded networks can regain
// the same space and thus the same lowest IP, so we disambiguate with a
// founder nonce drawn when the network is created (documented deviation,
// DESIGN.md §6). Ordering is lexicographic; the lower tag wins a merge.
type NetTag struct {
	Addr  addrspace.Addr
	Nonce uint32
}

// Less orders tags: by lowest address, then by founder nonce.
func (t NetTag) Less(o NetTag) bool {
	if t.Addr != o.Addr {
		return t.Addr < o.Addr
	}
	return t.Nonce < o.Nonce
}

// IsZero reports whether the tag is unset.
func (t NetTag) IsZero() bool { return t == NetTag{} }

// String renders the tag as "addr#nonce".
func (t NetTag) String() string { return fmt.Sprintf("%v#%08x", t.Addr, t.Nonce) }

// HolderInfo identifies one replica in transit: whose space, which tables,
// which nodes hold copies.
type HolderInfo struct {
	Owner   radio.NodeID
	OwnerIP addrspace.Addr
	Pool    *addrspace.Pool
	Holders []radio.NodeID
}

type FirstBcast struct {
	Tries int
}

type FirstResp struct {
	IP        addrspace.Addr
	NetworkID NetTag
	IsHead    bool
}

// ComReq asks the allocator for a single address. PathHops accumulates the
// critical-path hop count the paper plots as configuration latency.
type ComReq struct {
	PathHops int
}

type ComCfg struct {
	Addr       addrspace.Addr
	NetworkID  NetTag
	Configurer radio.NodeID
	PathHops   int
}

type ComAck struct {
	Addr     addrspace.Addr
	PathHops int
}

type CfgNack struct {
	PathHops int
}

type ChReq struct {
	PathHops int
}

type ChPrp struct {
	Block    addrspace.Block
	PathHops int
}

type ChCnf struct {
	Block    addrspace.Block
	PathHops int
}

type ChCfg struct {
	Table      *addrspace.Table
	NetworkID  NetTag
	Configurer radio.NodeID
	PathHops   int
}

type ChAck struct {
	PathHops int
}

// QuorumClt collects a vote about one address (or about splitting the
// allocator's block when Split is set).
type QuorumClt struct {
	BallotID  uint64
	Owner     radio.NodeID
	Addr      addrspace.Addr
	Split     bool
	Allocator radio.NodeID
}

type QuorumCfm struct {
	BallotID   uint64
	Entry      addrspace.Entry
	HasReplica bool
	// Busy reports that this voter's vote for the address is currently
	// granted to another ballot (mutual exclusion).
	Busy bool
}

type QuorumUpd struct {
	Owner radio.NodeID
	Addr  addrspace.Addr
	Entry addrspace.Entry
}

type SplitUpd struct {
	Owner   radio.NodeID
	NewPool *addrspace.Pool
	NewHead radio.NodeID
}

type ReplicaDist struct {
	Info HolderInfo
}

type ReplicaAck struct {
	Info HolderInfo
}

type AgentFwd struct {
	Requestor radio.NodeID
	PathHops  int
}

type AgentCfg struct {
	Requestor radio.NodeID
	Grant     ComCfg
}

type UpdateLoc struct {
	Configurer   radio.NodeID
	ConfigurerIP addrspace.Addr
	Addr         addrspace.Addr
}

type ReturnAddr struct {
	Configurer   radio.NodeID
	ConfigurerIP addrspace.Addr
	Addr         addrspace.Addr
}

type DepartAck struct{}

type ReturnFwd struct {
	Owner radio.NodeID
	Addr  addrspace.Addr
}

// Vacate carries a freed address toward whoever holds a replica of the
// owner's space. TTL bounds forwarding rounds.
type Vacate struct {
	Owner radio.NodeID
	Addr  addrspace.Addr
	TTL   int
}

type MemberRecord struct {
	Node radio.NodeID
	Addr addrspace.Addr
}

type ChReturn struct {
	Pool    *addrspace.Pool
	Members []MemberRecord
}

type ChReturnAck struct{}

type ChResign struct{}

type Reassign struct {
	NewAllocator   radio.NodeID
	NewAllocatorIP addrspace.Addr
}

type PoolUpd struct {
	Owner radio.NodeID
	Pool  *addrspace.Pool
}

type RepReq struct{}

type RepRsp struct{}

type AddrRec struct {
	Target   radio.NodeID
	TargetIP addrspace.Addr
}

type RecRep struct {
	Target radio.NodeID
	Addr   addrspace.Addr
}

type RecFwd struct {
	Target radio.NodeID
	Addr   addrspace.Addr
	TTL    int
}

type Reconfig struct{}
