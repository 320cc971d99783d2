// Package core implements the paper's contribution: quorum-based IP
// address autoconfiguration with clustering and partial replication
// (Xu & Wu, ICDCS 2007).
//
// Cluster heads own buddy-split address blocks (IPSpace) and replicate
// them at the adjacent cluster heads within three hops (the QDSet). Every
// configuration collects a quorum of votes over the replicas, with the
// freshest timestamp deciding availability, so no two nodes are ever
// configured with the same address — even across network partitions. The
// package also implements the protocol's maintenance machinery: location
// updates, graceful and abrupt departure, address reclamation, address
// borrowing from the QuorumSpace, quorum adjustment, and partition/merge
// handling.
//
// Two simulation fidelity shortcuts are taken, both documented in
// DESIGN.md §6: hello beacons are charged analytically (one transmission
// per node per interval) while the neighbor knowledge they would carry is
// read from the current connectivity snapshot, and unicast routing
// resolves the destination by node ID where a real deployment routes by
// the IP the protocol itself assigned.
package core

import (
	"fmt"
	"sort"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/health"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/quorum"
	"quorumconf/internal/radio"
	"quorumconf/internal/sim"
)

// Role is a node's position in the cluster hierarchy.
type Role uint8

// Roles.
const (
	RoleUnconfigured Role = iota + 1
	RoleCommon
	RoleHead
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleUnconfigured:
		return "unconfigured"
	case RoleCommon:
		return "common"
	case RoleHead:
		return "head"
	default:
		return fmt.Sprintf("role(%d)", uint8(r))
	}
}

// maxProposals bounds address proposals per configuration request.
const maxProposals = 16

// The protocol's timers and limits. The paper fixes them (§IV–V) and its
// evaluation varies topology, not timers, so they are constants; Td, which
// the ablation catalog varies, is the one timer left in Params.
const (
	helloInterval        = time.Second            // beacon period, and the maintenance tick
	te                   = 2 * time.Second        // T_e, the first node's re-broadcast wait (§IV-B)
	maxRetries           = 3                      // Max_r, the first node's broadcast attempts (§IV-B)
	tr                   = 3 * time.Second        // T_r, the REP_REQ wait before reclamation (§V-B)
	updatePeriod         = 5 * time.Second        // common-node location check period (§IV-C1)
	quorumTimeout        = 500 * time.Millisecond // bounds one vote-collection round
	configTimeout        = 3 * time.Second        // requestor's wait before re-trying configuration
	reclaimSettle        = 2 * time.Second        // REC_REP wait before freeing unclaimed addresses (§IV-D)
	reclaimCooldown      = 60 * time.Second       // suppresses repeat reclamations of one target
	partitionCheckPeriod = 5 * time.Second        // how often heads compare network IDs (§V-C)
)

// Params configures the protocol. Zero fields take the defaults the
// simulation section of the paper implies.
type Params struct {
	// Space is the network's full address pool, owned by the first head.
	Space addrspace.Block

	// Td delays quorum shrink after a member stops responding (default 3s).
	Td time.Duration

	// MinReplicas is the QDSet size below which a head recruits more
	// replica holders (3 in §V-B).
	MinReplicas int

	// BallotWindow bounds the common ballots one allocator keeps in
	// flight concurrently. Requests beyond the window queue FIFO and are
	// admitted as ballots close. 0 (the default) means unlimited; 1
	// reproduces the paper's one-ballot-at-a-time discipline and is the
	// serial baseline BenchmarkAllocThroughput compares against.
	BallotWindow int
	// VoteCacheTTL enables the allocator-side vote cache: a QDSet
	// member's last confirmed-in-sync time lets the allocator synthesize
	// that member's affirmative vote for own-IPSpace proposals instead of
	// re-polling, until the entry ages past the TTL or is invalidated by
	// a membership or address-state change (see votecache.go). 0 (the
	// default) disables the cache.
	VoteCacheTTL time.Duration

	// UponLeaveOnly selects the alternative location-update scheme of
	// §IV-C1: no periodic UPDATE_LOC traffic; vacate notices are broadcast
	// to adjacent heads on departure instead.
	UponLeaveOnly bool
	// LargestBlockAllocator selects the alternative of §IV-B: the entering
	// node polls nearby heads and picks the one with the largest free
	// block.
	LargestBlockAllocator bool
	// DisableBorrowing turns off QuorumSpace borrowing (§V-A) for
	// ablation.
	DisableBorrowing bool
	// DisableDynamicLinear turns off distinguished-node voting (§II-D)
	// for ablation.
	DisableDynamicLinear bool

	// Byzantine selects nodes that run the protocol dishonestly (see
	// byzantine.go). Zero value: everybody is honest.
	Byzantine ByzantineParams
}

func (p *Params) setDefaults() {
	if p.Space == (addrspace.Block{}) { // zero value: unset
		p.Space = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 1023} // 10.0.0.1/22-ish: 1024 addresses
	}
	if p.Td == 0 {
		p.Td = 3 * time.Second
	}
	if p.MinReplicas == 0 {
		p.MinReplicas = 3
	}
}

// isolationGrace is how long a head must remain cut off from every other
// head before it restarts as a new network (§V-C): Td + T_r + two hello
// intervals, so that the failure machinery runs first.
func (p Params) isolationGrace() time.Duration { return p.Td + tr + 2*helloInterval }

// adminRecord is what an administrator head remembers about a common node
// that registered via UPDATE_LOC.
type adminRecord struct {
	Configurer radio.NodeID
	Addr       addrspace.Addr
}

// node is the per-node protocol state. All fields are manipulated on the
// simulator goroutine.
type node struct {
	id    radio.NodeID
	alive bool
	role  Role

	ip        addrspace.Addr
	hasIP     bool
	networkID msg.NetTag

	configurer    radio.NodeID
	hasConfigurer bool
	administrator radio.NodeID
	hasAdmin      bool

	// Requestor-side configuration state.
	configuring bool
	firstTries  int
	cfgTimer    *sim.Timer
	heardIPs    []addrspace.Addr // IPs heard via FIRST_RESP while isolated

	// Head state.
	everHadPeers     bool                             // had adjacent heads at some point (partition detection)
	isolatedObserved bool                             // isolation condition currently observed
	isolatedSince    time.Duration                    // when it was first observed
	pools            *addrspace.Pool                  // IPSpace (possibly several blocks)
	replicas         map[radio.NodeID]*addrspace.Pool // QuorumSpace: owner -> replica
	replicaHolders   map[radio.NodeID][]radio.NodeID  // owner -> electorate (owner + its QDSet)
	ownerIPs         map[radio.NodeID]addrspace.Addr  // owner -> its IP
	qdset            map[radio.NodeID]bool            // adjacent heads within 3 hops
	members          map[radio.NodeID]addrspace.Addr  // common nodes I configured
	administered     map[radio.NodeID]adminRecord     // nodes I administer
	suspects         map[radio.NodeID]*sim.Timer      // Td timers per silent QDSet member
	probing          map[radio.NodeID]*sim.Timer      // Tr timers per REP_REQ probe
	ballots          map[uint64]*pendingBallot        // in-flight vote collections
	reclaims         quorum.Reclaims                  // in-progress reclamations by target
	recentReclaims   map[radio.NodeID]time.Duration   // settle times of completed reclamations
	grants           *quorum.Grants                   // exclusive votes, own open ballots' reservations
	allocQueue       []allocRequest                   // requests deferred by the ballot window
	voteCache        *voteCache                       // allocator-side vote cache (nil when disabled)
	healthMon        *health.Monitor                  // replica-health monitor (heads only)
}

// allocRequest is one address request waiting for a ballot-window slot.
type allocRequest struct {
	requestor radio.NodeID
	pathHops  int
	viaAgent  bool
	agent     radio.NodeID
	span      uint64 // causal span minted at the requestor
}

func (n *node) isHead() bool   { return n.alive && n.role == RoleHead }
func (n *node) isCommon() bool { return n.alive && n.role == RoleCommon }

// departedInfo is the necrology record kept for experiments (Fig 13 needs
// replica-holder sets of abruptly departed heads).
type departedInfo struct {
	Role    Role
	IP      addrspace.Addr
	HasIP   bool
	Holders []radio.NodeID
	Space   uint32
}

// Protocol is the quorum-based autoconfiguration protocol over one
// simulated MANET. It implements protocol.Protocol.
type Protocol struct {
	rt *protocol.Runtime
	p  Params

	nodes    map[radio.NodeID]*node
	departed map[radio.NodeID]departedInfo
	ipOwner  map[addrspace.Addr]radio.NodeID // assigned IP -> node (routing shortcut)

	ballotSeq uint64
	spanSeq   uint64
	ticks     uint64
	tickTimer *sim.Timer
	running   bool

	byz map[radio.NodeID]ByzantineBehavior // malicious node -> behavior set
}

// New creates the protocol bound to a runtime. Start is implicit: the
// maintenance tick begins with the first node arrival.
func New(rt *protocol.Runtime, params Params) (*Protocol, error) {
	if rt == nil {
		return nil, fmt.Errorf("core: nil runtime")
	}
	params.setDefaults()
	if params.Space.Size() < 2 {
		return nil, fmt.Errorf("core: address space %v too small", params.Space)
	}
	byz := make(map[radio.NodeID]ByzantineBehavior, len(params.Byzantine.Nodes))
	for _, id := range params.Byzantine.Nodes {
		byz[id] = params.Byzantine.Behaviors
	}
	return &Protocol{
		rt:       rt,
		p:        params,
		nodes:    make(map[radio.NodeID]*node),
		departed: make(map[radio.NodeID]departedInfo),
		ipOwner:  make(map[addrspace.Addr]radio.NodeID),
		byz:      byz,
	}, nil
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "quorum" }

// Params returns the effective parameters after defaulting.
func (p *Protocol) Params() Params { return p.p }

// --- plumbing -----------------------------------------------------------

func (p *Protocol) snapshot() *radio.Snapshot { return p.rt.Net.Snapshot() }

func (p *Protocol) isHeadFn(id radio.NodeID) bool {
	nd, ok := p.nodes[id]
	return ok && nd.isHead()
}

// send unicasts a typed payload, returning the hop count (0, false when
// unreachable).
func (p *Protocol) send(src, dst radio.NodeID, typ string, cat metrics.Category, payload any) (int, bool) {
	return p.rt.Net.Unicast(src, dst, netstack.Message{Type: typ, Category: cat, Payload: payload})
}

// sendSpan is send with a causal span ID riding the message.
func (p *Protocol) sendSpan(src, dst radio.NodeID, typ string, cat metrics.Category, span uint64, payload any) (int, bool) {
	return p.rt.Net.Unicast(src, dst, netstack.Message{Type: typ, Category: cat, Span: span, Payload: payload})
}

// mintSpan issues a fresh causal span ID originating at origin. The
// sequence is protocol-global and advances only with protocol activity, so
// identical runs mint identical spans (the determinism contract).
func (p *Protocol) mintSpan(origin radio.NodeID) uint64 {
	p.spanSeq++
	return obs.MintSpan(origin, p.spanSeq)
}

func (p *Protocol) node(id radio.NodeID) *node { return p.nodes[id] }

// sortedIDs returns map keys in ascending order for deterministic
// iteration.
func sortedIDs[V any](m map[radio.NodeID]V) []radio.NodeID {
	out := make([]radio.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// space returns this head's copy of owner's address space: its own pool
// when it is the owner, the replica otherwise; nil when it holds neither.
func (nd *node) space(owner radio.NodeID) *addrspace.Pool {
	if owner == nd.id {
		return nd.pools
	}
	return nd.replicas[owner]
}

// localEntry reads this head's freshest knowledge of (owner, addr).
func (nd *node) localEntry(owner radio.NodeID, addr addrspace.Addr) (addrspace.Entry, bool) {
	if pool := nd.space(owner); pool != nil {
		return pool.Get(addr)
	}
	return addrspace.Entry{}, false
}

// applyEntry writes (owner, addr) state into this head's copy. A write to
// the node's own pool invalidates the whole vote cache: QDSet members may
// now hold state this head never propagated, so no synthesized vote is
// trustworthy. The head's own commit path re-confirms exactly the members
// it successfully propagated the write to (finishCommonBallot).
func (nd *node) applyEntry(owner radio.NodeID, addr addrspace.Addr, e addrspace.Entry) {
	if pool := nd.space(owner); pool != nil {
		_ = pool.Set(addr, e)
	}
	if owner == nd.id {
		nd.voteCache.invalidateAll()
	}
}

// electorate returns the voting set for owner's space as this head knows
// it: the owner plus its QDSet at replica-distribution time. For the
// head's own space that is itself plus its current QDSet.
func (nd *node) electorate(owner radio.NodeID) []radio.NodeID {
	if owner == nd.id {
		out := []radio.NodeID{nd.id}
		out = append(out, sortedIDs(nd.qdset)...)
		return out
	}
	holders := nd.replicaHolders[owner]
	out := make([]radio.NodeID, len(holders))
	copy(out, holders)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// --- public introspection (used by experiments, examples and tests) ------

// Role returns a node's current role; RoleUnconfigured for unknown nodes.
func (p *Protocol) Role(id radio.NodeID) Role {
	if nd, ok := p.nodes[id]; ok && nd.alive {
		return nd.role
	}
	return RoleUnconfigured
}

// IP returns a node's configured address.
func (p *Protocol) IP(id radio.NodeID) (addrspace.Addr, bool) {
	if nd, ok := p.nodes[id]; ok && nd.alive && nd.hasIP {
		return nd.ip, true
	}
	return 0, false
}

// IsConfigured implements protocol.Protocol.
func (p *Protocol) IsConfigured(id radio.NodeID) bool {
	_, ok := p.IP(id)
	return ok
}

// NetworkID returns the paper-visible partition identifier (the lowest IP
// of the network) a node currently carries.
func (p *Protocol) NetworkID(id radio.NodeID) (addrspace.Addr, bool) {
	if nd, ok := p.nodes[id]; ok && nd.alive && nd.hasIP {
		return nd.networkID.Addr, true
	}
	return 0, false
}

// NetworkTag returns the full partition tag, including the founder nonce.
func (p *Protocol) NetworkTag(id radio.NodeID) (msg.NetTag, bool) {
	if nd, ok := p.nodes[id]; ok && nd.alive && nd.hasIP {
		return nd.networkID, true
	}
	return msg.NetTag{}, false
}

// Heads returns the alive cluster heads in ascending order.
func (p *Protocol) Heads() []radio.NodeID {
	var out []radio.NodeID
	for id, nd := range p.nodes {
		if nd.isHead() {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ConfiguredCount returns how many alive nodes hold addresses.
func (p *Protocol) ConfiguredCount() int {
	n := 0
	for _, nd := range p.nodes {
		if nd.alive && nd.hasIP {
			n++
		}
	}
	return n
}

// QDSetSize returns the current QDSet size of a head (0 for non-heads).
func (p *Protocol) QDSetSize(id radio.NodeID) int {
	if nd, ok := p.nodes[id]; ok && nd.isHead() {
		return len(nd.qdset)
	}
	return 0
}

// OwnSpaceSize returns the number of addresses in a head's own IPSpace.
func (p *Protocol) OwnSpaceSize(id radio.NodeID) uint32 {
	if nd, ok := p.nodes[id]; ok && nd.isHead() && nd.pools != nil {
		return nd.pools.Size()
	}
	return 0
}

// EffectiveSpaceSize returns IPSpace plus QuorumSpace — the address pool a
// head can serve with borrowing (§V-A, Fig 12).
func (p *Protocol) EffectiveSpaceSize(id radio.NodeID) uint32 {
	nd, ok := p.nodes[id]
	if !ok || !nd.isHead() {
		return 0
	}
	total := uint32(0)
	if nd.pools != nil {
		total = nd.pools.Size()
	}
	for _, rep := range nd.replicas {
		total += rep.Size()
	}
	return total
}

// HoldersOf returns the replica-holder electorate recorded for a head —
// including heads that have since departed (Fig 13 reliability analysis).
func (p *Protocol) HoldersOf(owner radio.NodeID) []radio.NodeID {
	if nd, ok := p.nodes[owner]; ok && nd.isHead() {
		return nd.electorate(owner)
	}
	if info, ok := p.departed[owner]; ok {
		out := make([]radio.NodeID, len(info.Holders))
		copy(out, info.Holders)
		return out
	}
	return nil
}

// DepartedSpaceSize returns the IPSpace size a departed head owned.
func (p *Protocol) DepartedSpaceSize(owner radio.NodeID) uint32 {
	return p.departed[owner].Space
}

// AddressConflicts returns groups of alive nodes sharing one address
// within the same connected component — the paper's central invariant is
// that this is always empty once merges settle. Disconnected islands may
// legitimately reuse addresses (they are separate networks).
func (p *Protocol) AddressConflicts() map[addrspace.Addr][]radio.NodeID {
	byAddr := map[addrspace.Addr][]radio.NodeID{}
	for id, nd := range p.nodes {
		if nd.alive && nd.hasIP {
			byAddr[nd.ip] = append(byAddr[nd.ip], id)
		}
	}
	snap := p.snapshot()
	out := map[addrspace.Addr][]radio.NodeID{}
	for a, ids := range byAddr {
		if len(ids) < 2 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		// Keep only members that share a component with another holder.
		var conflicted []radio.NodeID
		for i, x := range ids {
			for j, y := range ids {
				if i != j && snap.Reachable(x, y) {
					conflicted = append(conflicted, x)
					break
				}
			}
		}
		if len(conflicted) > 1 {
			out[a] = conflicted
		}
	}
	return out
}

// Alive reports whether the node is still part of the network.
func (p *Protocol) Alive(id radio.NodeID) bool {
	nd, ok := p.nodes[id]
	return ok && nd.alive
}

// MembersOf returns the common nodes a head currently tracks as its
// cluster members, ascending.
func (p *Protocol) MembersOf(id radio.NodeID) []radio.NodeID {
	if nd, ok := p.nodes[id]; ok && nd.isHead() {
		return sortedIDs(nd.members)
	}
	return nil
}
