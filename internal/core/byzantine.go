package core

// Byzantine fault injection: a configured subset of nodes runs the protocol
// dishonestly, attacking exactly the invariant the quorum scheme exists to
// protect — no duplicate addresses. The behaviors follow the adversarial
// model of Slimane et al. (see PAPERS.md): false vote replies, deliberate
// duplicate-address claims, and forged reclamation reports. Sybil joiners
// and silent droppers are protocol-agnostic and injected by the workload
// layer (workload.Byzantine) so the baselines face them too.
//
// Injection points are deliberately thin guards at the top of the honest
// handlers (onQuorumClt, allocate, onAddrRec): a malicious node is an
// ordinary node whose replies lie, not a separate code path, so the honest
// majority's defenses are exercised exactly as deployed.

import (
	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// ByzantineBehavior is a bitmask of dishonest behaviors a malicious node
// runs.
type ByzantineBehavior uint8

// Byzantine behaviors.
const (
	// ByzVoteLiar answers quorum polls with forged "free" votes carrying
	// fabricated freshness, and answers ADDR_REC reclamation broadcasts
	// with forged existence reports for every address it knows, so leaked
	// addresses are never recovered.
	ByzVoteLiar ByzantineBehavior = 1 << iota
	// ByzDupClaimer, as an allocating head, hands out addresses without
	// running a ballot and without marking them occupied — the same
	// address is granted to every requestor that asks.
	ByzDupClaimer
)

// ByzantineParams selects the malicious nodes and what they do.
type ByzantineParams struct {
	// Nodes are the malicious node IDs. A listed node misbehaves from the
	// moment it arrives.
	Nodes []radio.NodeID
	// Behaviors is the behavior set every listed node runs.
	Behaviors ByzantineBehavior
}

// CounterByzantineActs counts individual dishonest actions taken (forged
// votes, unballoted grants, forged reclamation floods).
const CounterByzantineActs = "byzantine_acts"

// byzHas reports whether id is configured malicious with behavior b.
func (p *Protocol) byzHas(id radio.NodeID, b ByzantineBehavior) bool {
	return p.byz[id]&b != 0
}

// byzVoteLie intercepts a quorum poll at a vote-liar: reply that the
// address is free with a version fresher than the local entry, so the
// forged vote wins the freshest-timestamp decision against honest
// "occupied" votes. Returns true when the poll was answered dishonestly.
func (p *Protocol) byzVoteLie(nd *node, src radio.NodeID, cat metrics.Category, pl msg.QuorumClt) bool {
	if !p.byzHas(nd.id, ByzVoteLiar) || !nd.isHead() || pl.Split {
		return false
	}
	cur, ok := nd.localEntry(pl.Owner, pl.Addr)
	if !ok {
		return false // nothing to lie about: an honest "no replica" follows
	}
	p.rt.Coll.Inc(CounterByzantineActs)
	p.rt.Trace(obs.Event{Kind: obs.EvByzantineVoteLie, Node: nd.id, Peer: src, Addr: pl.Addr, MsgID: pl.BallotID})
	_, _ = p.send(nd.id, src, msg.TQuorumCfm, cat, msg.QuorumCfm{
		BallotID:   pl.BallotID,
		Entry:      addrspace.Entry{Status: addrspace.Free, Version: cur.Version + 1},
		HasReplica: true,
	})
	return true
}

// byzDupClaim intercepts an address request at a duplicate-claimer head:
// grant the pool's first free address with no ballot and no occupancy mark,
// so every request is answered with the same address. Returns true when the
// request was served dishonestly.
func (p *Protocol) byzDupClaim(alloc *node, requestor radio.NodeID, pathHops int) bool {
	if !p.byzHas(alloc.id, ByzDupClaimer) || !alloc.isHead() || alloc.pools == nil {
		return false
	}
	addr, ok := alloc.pools.FirstFree()
	if !ok {
		return false
	}
	p.rt.Coll.Inc(CounterByzantineActs)
	p.rt.Trace(obs.Event{Kind: obs.EvByzantineDupClaim, Node: alloc.id, Peer: requestor, Addr: addr})
	_, _ = p.send(alloc.id, requestor, msg.TComCfg, metrics.CatConfig, msg.ComCfg{
		Addr:       addr,
		NetworkID:  alloc.networkID,
		Configurer: alloc.id,
		PathHops:   pathHops,
	})
	return true
}

// byzSabotageReclaim intercepts an ADDR_REC broadcast at a vote-liar head:
// instead of opening an honest report-collection window, it floods forged
// existence reports for every occupied address it knows of the target's
// space, so the honest holders refresh everything and free nothing.
// Returns true when the broadcast was handled dishonestly.
func (p *Protocol) byzSabotageReclaim(nd *node, pl msg.AddrRec) bool {
	if !p.byzHas(nd.id, ByzVoteLiar) || !nd.isHead() {
		return false
	}
	p.byzForgeReports(nd, pl.Target)
	return true
}

// byzSuppressReclaim intercepts reclamation initiation at a vote-liar head:
// a liar that detects a dead member (or runs dry) never starts the §IV-D
// process — it floods forged existence reports instead, so other holders
// refresh the leaked addresses and free nothing. Returns true when the
// initiation was suppressed.
func (p *Protocol) byzSuppressReclaim(initiator *node, target radio.NodeID) bool {
	if !p.byzHas(initiator.id, ByzVoteLiar) || !initiator.isHead() {
		return false
	}
	p.byzForgeReports(initiator, target)
	return true
}

// byzForgeReports floods forged REC_FWD existence reports to the liar's
// QDSet for every occupied address it knows of the target's space.
func (p *Protocol) byzForgeReports(nd *node, target radio.NodeID) {
	pool := nd.space(target)
	if pool == nil {
		return // not a holder: nothing to forge, honest window suppressed
	}
	p.rt.Coll.Inc(CounterByzantineActs)
	p.rt.Trace(obs.Event{Kind: obs.EvByzantineVoteLie, Node: nd.id, Peer: target, Detail: "forge_rec_rep"})
	for _, addr := range pool.Occupied() {
		for _, h := range sortedIDs(nd.qdset) {
			_, _ = p.send(nd.id, h, msg.TRecFwd, metrics.CatReclamation, msg.RecFwd{
				Target: target,
				Addr:   addr,
				TTL:    1,
			})
		}
	}
}

// AddressConflictCount is the number of addresses currently assigned to
// more than one alive node — the adversarial headline metric (zero in every
// honest run).
func (p *Protocol) AddressConflictCount() int {
	return len(p.AddressConflicts())
}
