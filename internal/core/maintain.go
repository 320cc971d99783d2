package core

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/cluster"
	"quorumconf/internal/health"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// Counter names for maintenance machinery.
const (
	// CounterQuorumShrinks counts QDSet members dropped after Td expiry.
	CounterQuorumShrinks = "quorum_shrinks"
	// CounterQuorumRecruits counts replica holders recruited to keep
	// |QDSet| >= MinReplicas.
	CounterQuorumRecruits = "quorum_recruits"
	// CounterLocationUpdates counts UPDATE_LOC messages sent.
	CounterLocationUpdates = "location_updates"
)

// scheduleTick starts the recurring maintenance event. One tick per
// helloInterval: hello-beacon cost is charged analytically (one
// transmission per live node), heads check QDSet liveness, and on coarser
// multiples common nodes run location checks and heads compare network IDs
// (partition detection).
func (p *Protocol) scheduleTick() {
	p.tickTimer = p.rt.Sim.Schedule(helloInterval, func() {
		p.tick()
		p.scheduleTick()
	})
}

// StopTicking halts the maintenance loop (used when a scenario drains the
// event queue at the end of a run).
func (p *Protocol) StopTicking() {
	if p.tickTimer != nil {
		p.tickTimer.Cancel()
		p.tickTimer = nil
	}
	p.running = false
}

func (p *Protocol) tick() {
	p.ticks++
	n := p.rt.Topo.Len()
	if n == 0 {
		return
	}
	// Hello beacons: every live node transmits once per interval.
	p.rt.Coll.AddTransmissions(metrics.CatHello, n)

	p.checkHeadLiveness()

	updateEvery := uint64(updatePeriod / helloInterval)
	if updateEvery == 0 {
		updateEvery = 1
	}
	if !p.p.UponLeaveOnly && p.ticks%updateEvery == 0 {
		p.runLocationUpdates()
	}
	partitionEvery := uint64(partitionCheckPeriod / helloInterval)
	if partitionEvery == 0 {
		partitionEvery = 1
	}
	if p.ticks%partitionEvery == 0 {
		p.checkPartitions()
		// Replication floor (§V-B): heads that formed, or were left, with
		// too few replica holders recruit more on the same cadence. The
		// health monitor runs first so its under/restored edges observe the
		// state the recruitment is about to repair.
		for _, id := range sortedIDs(p.nodes) {
			if nd := p.nodes[id]; nd.isHead() {
				p.evaluateHealth(nd)
				p.maintainReplicationLevel(nd)
			}
		}
	}
}

// evaluateHealth runs the replica-health monitor over a head's QDSet, the
// same measurement quorumd takes of its live electorate, for its
// health_check and under/restored events. Hello reachability is the lease:
// checkHeadLiveness renewed it for every reachable member earlier in this
// tick, so no lease is ever aging and Refresh stays empty. The repairs are
// the paper's: maintainReplicationLevel (called right after on the same
// cadence) recruits, and the Td quorum-shrink path retires dead holders.
func (p *Protocol) evaluateHealth(nd *node) {
	if nd.healthMon == nil {
		return
	}
	snap := p.snapshot()
	now := time.Time{}.Add(p.rt.Sim.Now()) // health measures on time.Time; only differences count
	peers := make([]health.PeerState, 0, len(nd.qdset))
	for _, m := range sortedIDs(nd.qdset) {
		peers = append(peers, health.PeerState{
			ID:      m,
			Dead:    !p.Alive(m) || !snap.Reachable(nd.id, m),
			Holder:  true, // every QDSet member is a designated holder
			AckedAt: now,
		})
	}
	// Other heads in the component are the recruitable non-holders; without
	// them the effective target caps at the holder count and a lost replica
	// never reads as under-replicated even when a replacement exists.
	for _, h := range cluster.HeadsWithin(snap, nd.id, snap.Len(), p.isHeadFn) {
		if h == nd.id || nd.qdset[h] {
			continue
		}
		peers = append(peers, health.PeerState{ID: h})
	}
	nd.healthMon.Evaluate(now, nd.id, peers)
}

// checkHeadLiveness is the hello-driven failure detector: a head that
// stops hearing a QDSet member starts the Td timer; reachability again
// cancels it (§V-B).
func (p *Protocol) checkHeadLiveness() {
	snap := p.snapshot()
	for _, id := range sortedIDs(p.nodes) {
		nd := p.nodes[id]
		if !nd.isHead() {
			continue
		}
		for _, m := range sortedIDs(nd.qdset) {
			reachable := p.Alive(m) && snap.Reachable(nd.id, m)
			if reachable {
				if t, ok := nd.suspects[m]; ok {
					t.Cancel()
					delete(nd.suspects, m)
				}
				continue
			}
			p.suspectMember(nd, m)
		}
	}
}

// suspectMember arms the Td timer for a silent QDSet member. The timer is
// jittered: all of a dead head's QDSet members notice the silence within
// the same hello interval, and without jitter they would all initiate
// reclamation simultaneously instead of the first flood suppressing the
// rest.
func (p *Protocol) suspectMember(nd *node, m radio.NodeID) {
	if !nd.isHead() || !nd.qdset[m] {
		return
	}
	if t, ok := nd.suspects[m]; ok && t.Pending() {
		return
	}
	p.rt.Trace(obs.Event{Kind: obs.EvPeerSuspect, Node: nd.id, Peer: m})
	jitter := time.Duration(p.rt.Sim.Rand().Int63n(int64(2*helloInterval) + 1))
	nd.suspects[m] = p.rt.Sim.Schedule(p.p.Td+jitter, func() { p.onTdExpired(nd, m) })
}

// onTdExpired shrinks the quorum set (§V-B): the member is excluded from
// the QDSet, and a REP_REQ probe verifies whether it still exists; no reply
// within Tr starts address reclamation for it.
func (p *Protocol) onTdExpired(nd *node, m radio.NodeID) {
	delete(nd.suspects, m)
	if !nd.isHead() || !nd.qdset[m] {
		return
	}
	snap := p.snapshot()
	if p.Alive(m) && snap.Reachable(nd.id, m) {
		return // came back before the timer fired
	}
	delete(nd.qdset, m)
	p.dropCachedVoter(nd, m)
	p.rt.Coll.Inc(CounterQuorumShrinks)
	p.rt.Trace(obs.Event{Kind: obs.EvQuorumShrink, Node: nd.id, Peer: m})

	// Probe: the transmission is attempted whether or not the target is
	// reachable, so one transmission is charged either way. Probes are
	// quorum-adjustment maintenance (§V-B), not reclamation traffic.
	p.rt.Trace(obs.Event{Kind: obs.EvQuorumProbe, Node: nd.id, Peer: m})
	if _, ok := p.send(nd.id, m, msg.TRepReq, metrics.CatSync, msg.RepReq{}); !ok {
		p.rt.Coll.AddTransmissions(metrics.CatSync, 1)
	}
	if t, ok := nd.probing[m]; ok {
		t.Cancel()
	}
	trJitter := time.Duration(p.rt.Sim.Rand().Int63n(int64(2*helloInterval) + 1))
	nd.probing[m] = p.rt.Sim.Schedule(tr+trJitter, func() { p.onTrExpired(nd, m) })

	p.maintainReplicationLevel(nd)
}

func (p *Protocol) onRepReq(nd *node, m netstack.Message) {
	if !nd.alive {
		return
	}
	_, _ = p.send(nd.id, m.Src, msg.TRepRsp, metrics.CatSync, msg.RepRsp{})
}

func (p *Protocol) onRepRsp(nd *node, m netstack.Message) {
	if !nd.isHead() {
		return
	}
	if t, ok := nd.probing[m.Src]; ok {
		t.Cancel()
		delete(nd.probing, m.Src)
	}
	// The member exists after all: re-admit it.
	if !nd.qdset[m.Src] && p.isHeadFn(m.Src) {
		nd.qdset[m.Src] = true
		nd.everHadPeers = true
	}
}

// onTrExpired: the probed head never answered — reclaim its address space
// (§V-B last paragraph, §IV-D).
func (p *Protocol) onTrExpired(nd *node, m radio.NodeID) {
	delete(nd.probing, m)
	if !nd.isHead() {
		return
	}
	if p.Alive(m) && p.snapshot().Reachable(nd.id, m) {
		return
	}
	ip := nd.ownerIPs[m]
	p.rt.Trace(obs.Event{Kind: obs.EvPeerDead, Node: nd.id, Peer: m, Addr: ip})
	p.initiateReclamation(nd, m, ip)
}

// maintainReplicationLevel recruits new replica holders when the QDSet
// falls below MinReplicas (§V-B: "cluster heads begin to increase replicas
// once |QDSet| is lower than 3"). Adjacent heads within the normal 3-hop
// QDSet radius are preferred; when too few exist, the search widens to
// more distant heads in the component so the replication floor holds.
func (p *Protocol) maintainReplicationLevel(nd *node) {
	if len(nd.qdset) >= p.p.MinReplicas {
		return
	}
	snap := p.snapshot()
	candidates := cluster.HeadsWithin(snap, nd.id, 3, p.isHeadFn)
	// Count only candidates that would actually be new recruits: nearby
	// heads already in the QDSet cannot raise the level, so they must not
	// satisfy the floor and suppress the wider search.
	fresh := 0
	for _, h := range candidates {
		if !nd.qdset[h] && h != nd.id {
			fresh++
		}
	}
	if len(nd.qdset)+fresh < p.p.MinReplicas {
		candidates = cluster.HeadsWithin(snap, nd.id, snap.Len(), p.isHeadFn)
	}
	recruited := false
	for _, h := range candidates {
		if nd.qdset[h] || h == nd.id {
			continue
		}
		nd.qdset[h] = true
		nd.everHadPeers = true
		recruited = true
		p.rt.Coll.Inc(CounterQuorumRecruits)
		p.rt.Trace(obs.Event{Kind: obs.EvQuorumRecruit, Node: nd.id, Peer: h})
		_, _ = p.send(nd.id, h, msg.TReplicaDist, metrics.CatSync, msg.ReplicaDist{Info: nd.holderInfo()})
		if len(nd.qdset) >= p.p.MinReplicas {
			break
		}
	}
	if recruited {
		// Electorate changed: refresh the holder lists at all members.
		p.distributeReplicas(nd, metrics.CatSync)
	}
}

// runLocationUpdates implements §IV-C1 periodic updates: a common node
// more than three hops from its configurer (or current administrator)
// registers with the nearest head via UPDATE_LOC.
func (p *Protocol) runLocationUpdates() {
	snap := p.snapshot()
	for _, id := range sortedIDs(p.nodes) {
		nd := p.nodes[id]
		if !nd.isCommon() || !nd.hasIP {
			continue
		}
		anchor := nd.configurer
		if nd.hasAdmin {
			anchor = nd.administrator
		}
		if d, ok := snap.HopCount(nd.id, anchor); ok && d <= 3 && p.Alive(anchor) {
			continue
		}
		head, _, ok := cluster.Nearest(snap, nd.id, p.isHeadFn)
		if !ok || head == anchor {
			continue
		}
		if _, sent := p.send(nd.id, head, msg.TUpdateLoc, metrics.CatMovement, msg.UpdateLoc{
			Configurer:   nd.configurer,
			ConfigurerIP: p.ipOf(nd.configurer),
			Addr:         nd.ip,
		}); sent {
			nd.administrator = head
			nd.hasAdmin = true
			p.rt.Coll.Inc(CounterLocationUpdates)
		}
	}
}

func (p *Protocol) ipOf(id radio.NodeID) addrspace.Addr {
	if nd, ok := p.nodes[id]; ok && nd.hasIP {
		return nd.ip
	}
	if info, ok := p.departed[id]; ok && info.HasIP {
		return info.IP
	}
	return 0
}

func (p *Protocol) onUpdateLoc(nd *node, m netstack.Message, pl msg.UpdateLoc) {
	if !nd.isHead() {
		return
	}
	nd.administered[m.Src] = adminRecord{Configurer: pl.Configurer, Addr: pl.Addr}
}
