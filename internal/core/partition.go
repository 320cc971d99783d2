package core

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// Counter names for partition handling.
const (
	// CounterMergeRejoins counts nodes that gave up their address to
	// rejoin a lower-ID network after a merge (§V-C).
	CounterMergeRejoins = "merge_rejoins"
	// CounterIsolatedRestarts counts heads that restarted as the first
	// head of a new network after total isolation (§V-C).
	CounterIsolatedRestarts = "isolated_restarts"
)

// checkPartitions runs the §V-C machinery on the partition-check cadence.
// Each network is identified by the lowest IP address within it; the ID is
// carried in hello beacons, which we read off the connectivity snapshot
// (see the package comment on the hello shortcut).
//
// Two cases are handled per head:
//
//   - Merge: a head hears a configured node with a lower network ID in its
//     component. Its own network is the larger-ID one, so the head and its
//     members must acquire new addresses from the other network.
//   - Isolation: a head has lost every QDSet member and there is no other
//     head in its component. It cannot collect any quorum, so it restarts
//     as the first head of a fresh network and reconfigures its members.
func (p *Protocol) checkPartitions() {
	snap := p.snapshot()
	for _, id := range sortedIDs(p.nodes) {
		nd := p.nodes[id]
		if !nd.alive || !nd.hasIP {
			continue
		}
		if !nd.isHead() {
			// Common nodes rejoin on their own when they meet a lower-tag
			// network: their head may be gone or out of reach, and §V-C
			// wants every larger-ID node to reacquire an address.
			if lowest, foreign := p.lowestNetworkID(snap, nd); foreign && lowest.Less(nd.networkID) {
				p.rt.Coll.Inc(CounterMergeRejoins)
				p.rt.Trace(obs.Event{Kind: obs.EvPartitionMerge, Node: nd.id, Addr: nd.ip, Detail: "member"})
				p.resetToUnconfigured(nd)
				p.scheduleRejoin(nd)
			}
			continue
		}
		lowest, foreign := p.lowestNetworkID(snap, nd)
		switch {
		case foreign && lowest.Less(nd.networkID):
			p.mergeRejoin(snap, nd)
		case p.isolated(snap, nd):
			// Debounce: restart only after the condition persists past
			// the isolation grace, giving the §V-B failure machinery (Td
			// shrink, REP_REQ, reclamation) its chance to explain the
			// silence as deaths rather than a partition.
			if !nd.isolatedObserved {
				nd.isolatedObserved = true
				nd.isolatedSince = p.rt.Sim.Now()
			} else if p.rt.Sim.Now()-nd.isolatedSince >= p.p.isolationGrace() {
				p.isolatedRestart(nd)
			}
		default:
			nd.isolatedObserved = false
		}
	}
}

// lowestNetworkID scans the head's component for the lowest network tag
// any configured node carries, reporting whether some node carries a tag
// different from the head's own.
func (p *Protocol) lowestNetworkID(snap *radio.Snapshot, nd *node) (msg.NetTag, bool) {
	lowest := nd.networkID
	foreign := false
	for _, other := range snap.Component(nd.id) {
		on, ok := p.nodes[other]
		if !ok || !on.alive || !on.hasIP {
			continue
		}
		if on.networkID != nd.networkID {
			foreign = true
		}
		if on.networkID.Less(lowest) {
			lowest = on.networkID
		}
	}
	return lowest, foreign
}

// isolated reports whether the head has been cut off by a partition. A
// head that never had peers is simply a single-cluster network, not a
// partition victim (§V-C's "isolated cluster head" presumes it lost its
// adjacent heads). And a head whose component still contains configured
// nodes belonging to other clusters is witnessing head *failures*, not a
// partition — those orphans hold addresses from the old space, so the
// §V-B reclamation machinery applies, never a space reset.
func (p *Protocol) isolated(snap *radio.Snapshot, nd *node) bool {
	if !nd.everHadPeers {
		return false
	}
	for _, other := range snap.Component(nd.id) {
		if other == nd.id {
			continue
		}
		if p.isHeadFn(other) {
			return false
		}
		on, ok := p.nodes[other]
		if !ok || !on.alive || !on.hasIP {
			continue
		}
		if on.role == RoleCommon && (!on.hasConfigurer || on.configurer != nd.id) {
			return false
		}
	}
	return true
}

// mergeRejoin makes a larger-ID head and its reachable members release
// their addresses and reacquire from the other network, joining "one by
// one" (§V-C).
func (p *Protocol) mergeRejoin(snap *radio.Snapshot, nd *node) {
	members := sortedIDs(nd.members)
	for _, m := range members {
		if !p.Alive(m) || !snap.Reachable(nd.id, m) {
			continue
		}
		_, _ = p.send(nd.id, m, msg.TReconfig, metrics.CatPartition, msg.Reconfig{})
	}
	p.rt.Coll.Inc(CounterMergeRejoins)
	p.rt.Trace(obs.Event{Kind: obs.EvPartitionMerge, Node: nd.id, Addr: nd.ip, Detail: "head"})
	p.resetToUnconfigured(nd)
	p.scheduleRejoin(nd)
}

func (p *Protocol) onReconfig(nd *node) {
	if !nd.alive || !nd.hasIP {
		return
	}
	p.rt.Coll.Inc(CounterMergeRejoins)
	p.rt.Trace(obs.Event{Kind: obs.EvPartitionMerge, Node: nd.id, Addr: nd.ip, Detail: "reconfig"})
	p.resetToUnconfigured(nd)
	p.scheduleRejoin(nd)
}

// scheduleRejoin re-runs configuration after a short jittered delay so
// merging nodes join "one by one" (§V-C) instead of stampeding the
// allocators at one instant.
func (p *Protocol) scheduleRejoin(nd *node) {
	jitter := time.Duration(p.rt.Sim.Rand().Int63n(int64(2 * helloInterval)))
	p.rt.Sim.Schedule(helloInterval+jitter, func() { p.attemptConfigure(nd) })
}

// resetToUnconfigured strips a node's address and role so it can rejoin.
func (p *Protocol) resetToUnconfigured(nd *node) {
	if nd.hasIP {
		delete(p.ipOwner, nd.ip)
	}
	for _, t := range nd.suspects {
		t.Cancel()
	}
	for _, t := range nd.probing {
		t.Cancel()
	}
	for _, pb := range nd.ballots {
		if pb.timer != nil {
			pb.timer.Cancel()
		}
	}
	nd.role = RoleUnconfigured
	nd.everHadPeers = false
	nd.isolatedObserved = false
	nd.hasIP = false
	nd.ip = 0
	nd.networkID = msg.NetTag{}
	nd.hasConfigurer = false
	nd.hasAdmin = false
	nd.configuring = false
	nd.firstTries = 0
	nd.heardIPs = nil
	nd.pools = nil
	nd.replicas = nil
	nd.replicaHolders = nil
	nd.ownerIPs = nil
	nd.qdset = nil
	nd.members = nil
	nd.administered = nil
	nd.suspects = nil
	nd.probing = nil
	nd.ballots = nil
	nd.reclaims = nil
	nd.grants = nil
	nd.allocQueue = nil
	nd.voteCache = nil
	nd.healthMon = nil
}

// isolatedRestart implements the §V-C "isolated cluster head" rule: the
// head regains the whole address space as the first head of a new network
// and reconfigures the common nodes still around it with fresh addresses.
func (p *Protocol) isolatedRestart(nd *node) {
	snap := p.snapshot()
	members := snap.Component(nd.id)
	// Keep existing state only if someone else might dispute the space;
	// total isolation means nobody can, so restart cleanly.
	tab, err := addrspace.NewTable(p.p.Space)
	if err != nil {
		return
	}
	pool := addrspace.NewPool(tab)
	ip, ok := pool.FirstFree()
	if !ok {
		return
	}
	if _, err := pool.Mark(ip, addrspace.Occupied); err != nil {
		return
	}
	p.rt.Coll.Inc(CounterIsolatedRestarts)
	p.rt.Trace(obs.Event{Kind: obs.EvIsolatedRestart, Node: nd.id, Addr: nd.ip})
	oldIP := nd.ip
	hadIP := nd.hasIP
	p.resetToUnconfigured(nd)
	if hadIP {
		delete(p.ipOwner, oldIP)
	}
	p.initHead(nd, pool, ip, msg.NetTag{Addr: ip, Nonce: p.rt.Sim.Rand().Uint32()}, 0, false)
	// Reconfigure the surviving common nodes with new addresses.
	for _, m := range members {
		if m == nd.id {
			continue
		}
		mn, ok := p.nodes[m]
		if !ok || !mn.alive || !mn.hasIP {
			continue
		}
		_, _ = p.send(nd.id, m, msg.TReconfig, metrics.CatPartition, msg.Reconfig{})
	}
}
