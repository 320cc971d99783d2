package core

import (
	"slices"
	"strconv"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/cluster"
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

// Counter and sample names recorded in the metrics collector.
const (
	// CounterConfigured counts successful configurations; it is
	// protocol.CounterConfigured, named here for callers outside the
	// simulator stack.
	CounterConfigured = protocol.CounterConfigured
	// CounterConfiguredHeads counts configurations that created heads.
	CounterConfiguredHeads = "configured_heads"
	// CounterProposalsRejected counts quorum rounds that found the
	// proposed address occupied.
	CounterProposalsRejected = "proposals_rejected"
	// CounterBallotsFailed counts vote collections abandoned without a
	// quorum.
	CounterBallotsFailed = "ballots_failed"
	// CounterConfigNacks counts refused configuration requests.
	CounterConfigNacks = "config_nacks"
	// CounterBorrowed counts addresses allocated out of QuorumSpace.
	CounterBorrowed = "borrowed"
	// CounterAgentForwards counts depleted-allocator relays.
	CounterAgentForwards = "agent_forwards"
)

type ballotPurpose uint8

const (
	purposeCommon ballotPurpose = iota + 1 // assign one address
	purposeSplit                           // approve a block split for a new head
)

// pendingBallot is one in-flight vote collection at an allocator.
type pendingBallot struct {
	id      uint64
	purpose ballotPurpose
	owner   radio.NodeID
	addr    addrspace.Addr

	ballot   *quorum.Ballot
	sentHops map[radio.NodeID]int

	requestor   radio.NodeID
	reqPathHops int    // critical path accumulated before this round
	maxRTT      int    // slowest round trip among votes cast this round
	proposals   int    // addresses proposed so far for this request
	span        uint64 // causal span minted at the requestor's origin
	viaAgent    bool
	agent       radio.NodeID

	timer *sim.Timer
	done  bool
}

// NodeArrived implements protocol.Protocol: the node (already present in
// the topology) boots, listens for one hello interval, then configures.
func (p *Protocol) NodeArrived(id radio.NodeID) {
	if !p.running {
		p.running = true
		p.scheduleTick()
	}
	nd := &node{id: id, alive: true, role: RoleUnconfigured}
	p.nodes[id] = nd
	p.rt.Net.InvalidateSnapshot()
	_ = p.rt.Net.Register(id, func(m netstack.Message) { p.dispatch(id, m) })
	p.rt.Trace(obs.Event{Kind: obs.EvNodeArrived, Node: id})
	p.rt.Sim.Schedule(helloInterval, func() { p.attemptConfigure(nd) })
}

// dispatch routes a delivered message to the node's handler.
func (p *Protocol) dispatch(id radio.NodeID, m netstack.Message) {
	nd, ok := p.nodes[id]
	if !ok || !nd.alive {
		return
	}
	switch pl := m.Payload.(type) {
	case msg.FirstBcast:
		p.onFirstBcast(nd, m)
	case msg.FirstResp:
		nd.heardIPs = append(nd.heardIPs, pl.IP)
	case msg.ComReq:
		p.allocate(nd, m.Src, pl.PathHops+m.Hops, false, 0, m.Span)
	case msg.ComCfg:
		p.onComCfg(nd, m, pl)
	case msg.ComAck:
		p.onConfiguredAck(nd, pl.PathHops+m.Hops, false)
	case msg.CfgNack:
		p.onCfgNack(nd)
	case msg.ChReq:
		p.onChReq(nd, m, pl)
	case msg.ChPrp:
		p.onChPrp(nd, m, pl)
	case msg.ChCnf:
		p.onChCnf(nd, m, pl)
	case msg.ChCfg:
		p.onChCfg(nd, m, pl)
	case msg.ChAck:
		p.onConfiguredAck(nd, pl.PathHops+m.Hops, true)
	case msg.QuorumClt:
		p.onQuorumClt(nd, m, pl)
	case msg.QuorumCfm:
		p.onQuorumCfm(nd, m, pl)
	case msg.QuorumUpd:
		// The write committed: release any vote grant for the address.
		nd.grants.Release(pl.Addr)
		// A borrower committing on this node's own space is an
		// address-state change this node did not propagate: applyNewer
		// wipes the vote cache, observed here.
		before := 0
		if pl.Owner == nd.id {
			before = nd.voteCache.size()
		}
		nd.applyNewer(pl.Owner, pl.Addr, pl.Entry)
		if before > 0 && nd.voteCache.size() == 0 {
			p.rt.Trace(obs.Event{Kind: obs.EvVoteCacheInvalidate, Node: nd.id, Peer: m.Src, Addr: pl.Addr, Detail: "remote_update"})
		}
	case msg.SplitUpd:
		p.onSplitUpd(nd, pl)
	case msg.ReplicaDist:
		p.onReplicaDist(nd, m, pl)
	case msg.ReplicaAck:
		p.storeReplica(nd, pl.Info)
	case msg.AgentFwd:
		p.onAgentFwd(nd, m, pl)
	case msg.AgentCfg:
		p.onAgentCfg(nd, m, pl)
	case msg.UpdateLoc:
		p.onUpdateLoc(nd, m, pl)
	case msg.ReturnAddr:
		p.onReturnAddr(nd, m, pl)
	case msg.DepartAck:
		p.onDepartAck(nd)
	case msg.ReturnFwd:
		p.onReturnFwd(nd, pl)
	case msg.Vacate:
		p.onVacate(nd, pl)
	case msg.ChReturn:
		p.onChReturn(nd, m, pl)
	case msg.ChReturnAck:
		p.onChReturnAck(nd)
	case msg.ChResign:
		p.onChResign(nd, m)
	case msg.Reassign:
		p.onReassign(nd, pl)
	case msg.PoolUpd:
		p.onPoolUpd(nd, pl)
	case msg.RepReq:
		p.onRepReq(nd, m)
	case msg.RepRsp:
		p.onRepRsp(nd, m)
	case msg.AddrRec:
		p.onAddrRec(nd, m.Span, pl)
	case msg.RecRep:
		p.applyRecReport(nd, m.Span, pl.Target, pl.Addr, 1)
	case msg.RecFwd:
		p.applyRecReport(nd, m.Span, pl.Target, pl.Addr, pl.TTL)
	case msg.Reconfig:
		p.onReconfig(nd)
	}
}

// applyNewer adopts a propagated entry if it is fresher than the local
// copy.
func (nd *node) applyNewer(owner radio.NodeID, addr addrspace.Addr, e addrspace.Entry) {
	if cur, ok := nd.localEntry(owner, addr); ok && e.Newer(cur) {
		nd.applyEntry(owner, addr, e)
	}
}

// attemptConfigure runs the paper's §IV-B decision: join a cluster if a
// head is within two hops, request a block from the nearest head
// otherwise, or run the first-node procedure when no head is reachable.
func (p *Protocol) attemptConfigure(nd *node) {
	if !nd.alive || nd.hasIP || nd.configuring {
		return
	}
	nd.configuring = true
	snap := p.snapshot()
	if heads2 := cluster.HeadsWithin(snap, nd.id, 2, p.isHeadFn); len(heads2) > 0 {
		alloc := p.chooseAllocator(nd, snap, heads2)
		span := p.mintSpan(nd.id)
		p.rt.Trace(obs.Event{Kind: obs.EvAllocRequest, Node: nd.id, Peer: alloc, Span: span, Detail: "common"})
		if _, ok := p.sendSpan(nd.id, alloc, msg.TComReq, metrics.CatConfig, span, msg.ComReq{}); ok {
			p.armCfgTimeout(nd)
			return
		}
	} else if head, _, ok := cluster.Nearest(snap, nd.id, p.isHeadFn); ok {
		span := p.mintSpan(nd.id)
		p.rt.Trace(obs.Event{Kind: obs.EvAllocRequest, Node: nd.id, Peer: head, Span: span, Detail: "head"})
		if _, ok := p.sendSpan(nd.id, head, msg.TChReq, metrics.CatConfig, span, msg.ChReq{}); ok {
			p.armCfgTimeout(nd)
			return
		}
	} else {
		p.firstNodeStep(nd)
		return
	}
	// Chosen peer became unreachable between snapshot and send: back off.
	p.retryConfigureLater(nd)
}

// chooseAllocator picks among the heads within two hops: the nearest one,
// or — under the §IV-B alternative — the one advertising the largest free
// block, at the cost of polling each candidate.
func (p *Protocol) chooseAllocator(nd *node, snap *radio.Snapshot, heads []radio.NodeID) radio.NodeID {
	if !p.p.LargestBlockAllocator || len(heads) == 1 {
		best := heads[0]
		bestD := -1
		for _, h := range heads {
			if d, ok := snap.HopCount(nd.id, h); ok && (bestD == -1 || d < bestD) {
				best, bestD = h, d
			}
		}
		return best
	}
	// Poll every candidate: request + response per head.
	best := heads[0]
	var bestFree uint32
	first := true
	for _, h := range heads {
		d, ok := snap.HopCount(nd.id, h)
		if !ok {
			continue
		}
		p.rt.Coll.AddTraffic(metrics.CatConfig, 2*d)
		free := uint32(0)
		if hn := p.nodes[h]; hn != nil && hn.pools != nil {
			free = hn.pools.FreeCount()
		}
		if first || free > bestFree {
			best, bestFree = h, free
			first = false
		}
	}
	return best
}

func (p *Protocol) armCfgTimeout(nd *node) {
	if nd.cfgTimer != nil {
		nd.cfgTimer.Cancel()
	}
	nd.cfgTimer = p.rt.Sim.Schedule(configTimeout, func() {
		if nd.alive && !nd.hasIP {
			nd.configuring = false
			p.attemptConfigure(nd)
		}
	})
}

func (p *Protocol) retryConfigureLater(nd *node) {
	nd.configuring = false
	p.rt.Coll.Inc("config_retries")
	p.rt.Sim.Schedule(configTimeout, func() { p.attemptConfigure(nd) })
}

// --- first node procedure (§IV-B) ----------------------------------------

// firstNodeStep broadcasts a configuration request; after te with no
// response it repeats up to maxRetries times and then declares this node
// the first cluster head with the whole address space.
func (p *Protocol) firstNodeStep(nd *node) {
	nd.firstTries++
	p.rt.Net.LocalBroadcast(nd.id, netstack.Message{
		Type:     msg.TFirstBcast,
		Category: metrics.CatConfig,
		Payload:  msg.FirstBcast{Tries: nd.firstTries},
	})
	p.rt.Sim.Schedule(te, func() {
		if !nd.alive || nd.hasIP {
			return
		}
		nd.configuring = false
		if nd.firstTries >= maxRetries {
			p.becomeFirstHead(nd)
			return
		}
		// A response or new neighbors may have appeared; re-run the full
		// decision (which falls back here and rebroadcasts otherwise).
		p.attemptConfigure(nd)
	})
}

func (p *Protocol) onFirstBcast(nd *node, m netstack.Message) {
	if !nd.hasIP {
		return
	}
	_, _ = p.send(nd.id, m.Src, msg.TFirstResp, metrics.CatConfig, msg.FirstResp{
		IP:        nd.ip,
		NetworkID: nd.networkID,
		IsHead:    nd.role == RoleHead,
	})
}

// becomeFirstHead grants this node the entire address space. Addresses
// heard from configured-but-headless neighbors (orphans of a dead head)
// are marked occupied so they are not reassigned.
func (p *Protocol) becomeFirstHead(nd *node) {
	tab, err := addrspace.NewTable(p.p.Space)
	if err != nil {
		return // impossible: Space validated in New
	}
	for _, heard := range nd.heardIPs {
		if tab.Block().Contains(heard) {
			_ = tab.Set(heard, addrspace.Entry{Status: addrspace.Occupied, Version: 1})
		}
	}
	pool := addrspace.NewPool(tab)
	ip, ok := pool.FirstFree()
	if !ok {
		return // space exhausted by heard IPs: stay unconfigured
	}
	_, _ = pool.Mark(ip, addrspace.Occupied)
	// Network ID: lowest IP of the new network plus a founder nonce.
	tag := msg.NetTag{Addr: ip, Nonce: p.rt.Sim.Rand().Uint32()}
	p.initHead(nd, pool, ip, tag, 0, false)
	nd.configuring = false
	p.rt.Coll.Observe(protocol.SampleConfigLatency, float64(nd.firstTries))
	p.rt.Coll.Inc(CounterConfigured)
	p.rt.Coll.Inc(CounterConfiguredHeads)
	p.completeHeadSetup(nd)
}

// initHead installs head state on a node.
func (p *Protocol) initHead(nd *node, pool *addrspace.Pool, ip addrspace.Addr, networkID msg.NetTag, configurer radio.NodeID, hasConfigurer bool) {
	nd.role = RoleHead
	nd.pools = pool
	nd.ip = ip
	nd.hasIP = true
	nd.networkID = networkID
	nd.configurer = configurer
	nd.hasConfigurer = hasConfigurer
	nd.replicas = make(map[radio.NodeID]*addrspace.Pool)
	nd.replicaHolders = make(map[radio.NodeID][]radio.NodeID)
	nd.ownerIPs = make(map[radio.NodeID]addrspace.Addr)
	nd.qdset = make(map[radio.NodeID]bool)
	nd.members = make(map[radio.NodeID]addrspace.Addr)
	nd.administered = make(map[radio.NodeID]adminRecord)
	nd.suspects = make(map[radio.NodeID]*sim.Timer)
	nd.probing = make(map[radio.NodeID]*sim.Timer)
	nd.ballots = make(map[uint64]*pendingBallot)
	nd.reclaims = make(quorum.Reclaims)
	nd.grants = quorum.NewGrants(4 * quorumTimeout)
	nd.voteCache = newVoteCache(p.p.VoteCacheTTL)
	nd.healthMon = health.New(health.Config{
		Target: p.p.MinReplicas + 1, // MinReplicas holders plus the owner
		TTL:    p.p.Td,
	}, p.rt.Tracer)
	p.ipOwner[ip] = nd.id
	if nd.cfgTimer != nil {
		nd.cfgTimer.Cancel()
		nd.cfgTimer = nil
	}
	ev := obs.Event{Kind: obs.EvHeadElected, Node: nd.id, Addr: ip, Detail: "first"}
	if hasConfigurer {
		ev.Peer, ev.Detail = configurer, "split"
	}
	p.rt.Trace(ev)
	p.rt.Trace(obs.Event{Kind: obs.EvNodeConfigured, Node: nd.id, Addr: ip, Detail: "head"})
}

// completeHeadSetup forms the QDSet and distributes IPSpace replicas to the
// adjacent heads (§IV-C2).
func (p *Protocol) completeHeadSetup(nd *node) {
	snap := p.snapshot()
	for _, h := range cluster.QDSet(snap, nd.id, p.isHeadFn) {
		if h != nd.id {
			nd.qdset[h] = true
			nd.everHadPeers = true
		}
	}
	p.distributeReplicas(nd, metrics.CatConfig)
}

// distributeReplicas pushes this head's current pool to every QDSet member.
func (p *Protocol) distributeReplicas(nd *node, cat metrics.Category) {
	for _, h := range sortedIDs(nd.qdset) {
		p.rt.Trace(obs.Event{Kind: obs.EvReplicaSync, Node: nd.id, Peer: h, Addr: nd.ip})
		_, _ = p.send(nd.id, h, msg.TReplicaDist, cat, msg.ReplicaDist{Info: nd.holderInfo()})
	}
}

// holderInfo is this head's replica as it travels in REPLICA_DIST and
// REPLICA_ACK: a fresh clone of its pool and its current electorate.
func (nd *node) holderInfo() msg.HolderInfo {
	return msg.HolderInfo{Owner: nd.id, OwnerIP: nd.ip, Pool: nd.pools.Clone(), Holders: nd.electorate(nd.id)}
}

func (p *Protocol) onReplicaDist(nd *node, m netstack.Message, pl msg.ReplicaDist) {
	if !nd.isHead() {
		return
	}
	known := nd.qdset[pl.Info.Owner]
	p.storeReplica(nd, pl.Info)
	if !known {
		// Reciprocate so the new adjacent head builds its QuorumSpace.
		_, _ = p.send(nd.id, m.Src, msg.TReplicaAck, m.Category, msg.ReplicaAck{Info: nd.holderInfo()})
	}
}

// storeReplica records another head's replica and QDSet membership.
func (p *Protocol) storeReplica(nd *node, info msg.HolderInfo) {
	if !nd.isHead() || info.Owner == nd.id || info.Pool == nil {
		return
	}
	nd.replicas[info.Owner] = info.Pool
	holders := make([]radio.NodeID, len(info.Holders))
	copy(holders, info.Holders)
	nd.replicaHolders[info.Owner] = holders
	nd.ownerIPs[info.Owner] = info.OwnerIP
	nd.qdset[info.Owner] = true
	nd.everHadPeers = true
	p.rt.Trace(obs.Event{Kind: obs.EvReplicaAdopt, Node: nd.id, Peer: info.Owner, Addr: info.OwnerIP})
	if t, ok := nd.suspects[info.Owner]; ok {
		t.Cancel()
		delete(nd.suspects, info.Owner)
	}
}

func (p *Protocol) onSplitUpd(nd *node, pl msg.SplitUpd) {
	if !nd.isHead() || pl.NewPool == nil {
		return
	}
	if _, ok := nd.replicas[pl.Owner]; ok {
		nd.replicas[pl.Owner] = pl.NewPool
	}
}

// --- allocation (allocator side) -----------------------------------------

// allocate serves one address request: propose an address from IPSpace,
// fall back to QuorumSpace borrowing (§V-A), and when fully depleted act as
// an agent relaying to this head's own configurer.
func (p *Protocol) allocate(alloc *node, requestor radio.NodeID, pathHops int, viaAgent bool, agent radio.NodeID, span uint64) {
	if !alloc.isHead() {
		p.nack(alloc, requestor, pathHops)
		return
	}
	if p.byzDupClaim(alloc, requestor, pathHops) {
		return
	}
	if p.p.BallotWindow > 0 && alloc.openCommonBallots() >= p.p.BallotWindow {
		// Window full: park the request; closeBallot drains the queue.
		alloc.allocQueue = append(alloc.allocQueue, allocRequest{
			requestor: requestor,
			pathHops:  pathHops,
			viaAgent:  viaAgent,
			agent:     agent,
			span:      span,
		})
		return
	}
	owner, addr, ok := p.proposal(alloc, nil)
	if !ok {
		p.initiateReclamation(alloc, alloc.id, alloc.ip)
		if !viaAgent && alloc.hasConfigurer && p.isHeadFn(alloc.configurer) {
			p.rt.Coll.Inc(CounterAgentForwards)
			if _, sent := p.sendSpan(alloc.id, alloc.configurer, msg.TAgentFwd, metrics.CatConfig, span, msg.AgentFwd{
				Requestor: requestor,
				PathHops:  pathHops,
			}); sent {
				return
			}
		}
		p.nack(alloc, requestor, pathHops)
		return
	}
	p.startBallot(alloc, &pendingBallot{
		purpose:     purposeCommon,
		owner:       owner,
		addr:        addr,
		requestor:   requestor,
		reqPathHops: pathHops,
		proposals:   1,
		span:        span,
		viaAgent:    viaAgent,
		agent:       agent,
	})
}

// nack refuses a request straight to the requestor, even one an agent relayed.
func (p *Protocol) nack(alloc *node, requestor radio.NodeID, pathHops int) {
	p.rt.Coll.Inc(CounterConfigNacks)
	_, _ = p.send(alloc.id, requestor, msg.TNack, metrics.CatConfig, msg.CfgNack{PathHops: pathHops})
}

// openCommonBallots counts the allocator's in-flight common ballots —
// the occupancy the BallotWindow admission check compares against. Split
// ballots are block handovers, not address assignments, and do not take a
// window slot.
func (nd *node) openCommonBallots() int {
	n := 0
	for _, pb := range nd.ballots {
		if pb.purpose == purposeCommon && !pb.done {
			n++
		}
	}
	return n
}

// drainAllocQueue admits parked requests while window slots are free. It
// runs from a zero-delay event scheduled by closeBallot, after the closing
// ballot's own follow-up (retry proposal or commit) has settled, so an
// in-flight request's retries keep their slot ahead of queued newcomers.
func (p *Protocol) drainAllocQueue(alloc *node) {
	for len(alloc.allocQueue) > 0 && alloc.isHead() &&
		(p.p.BallotWindow <= 0 || alloc.openCommonBallots() < p.p.BallotWindow) {
		req := alloc.allocQueue[0]
		alloc.allocQueue = alloc.allocQueue[1:]
		if !p.Alive(req.requestor) {
			continue
		}
		p.allocate(alloc, req.requestor, req.pathHops, req.viaAgent, req.agent, req.span)
	}
}

// proposal picks the first candidate address — own IPSpace first, then the
// QuorumSpace replicas in owner order; with prev, the first after prev's
// rejected one — that none of this allocator's open ballots proposes.
func (p *Protocol) proposal(alloc *node, prev *pendingBallot) (radio.NodeID, addrspace.Addr, bool) {
	ownerSeq := []radio.NodeID{alloc.id}
	if !p.p.DisableBorrowing {
		ownerSeq = append(ownerSeq, sortedIDs(alloc.replicas)...)
	}
	started := prev == nil
	for _, owner := range ownerSeq {
		pool := alloc.replicas[owner]
		if owner == alloc.id {
			pool = alloc.pools
		}
		if pool == nil || (!started && owner != prev.owner) {
			continue
		}
		var a addrspace.Addr
		var ok bool
		if started {
			a, ok = pool.FirstFree()
		} else {
			a, ok = pool.FirstFreeAfter(prev.addr)
			started = true
		}
		for ok && alloc.grants.Reserved(a) {
			a, ok = pool.FirstFreeAfter(a)
		}
		if ok {
			return owner, a, true
		}
	}
	return 0, 0, false
}

// reallocate re-runs pb's request at alloc after delay, unless alloc has
// stopped heading or the requestor is gone.
func (p *Protocol) reallocate(alloc *node, pb *pendingBallot, delay time.Duration, pathHops int) {
	p.rt.Sim.Schedule(delay, func() {
		if alloc.isHead() && p.Alive(pb.requestor) {
			p.allocate(alloc, pb.requestor, pathHops, pb.viaAgent, pb.agent, pb.span)
		}
	})
}

// startBallot begins quorum collection for a proposal.
func (p *Protocol) startBallot(alloc *node, pb *pendingBallot) {
	electorate := alloc.electorate(pb.owner)
	// The allocator itself always votes: it holds a copy by construction.
	if !slices.Contains(electorate, alloc.id) {
		electorate = append(electorate, alloc.id)
	}
	p.ballotSeq++
	pb.id = p.ballotSeq
	pb.sentHops = make(map[radio.NodeID]int)

	bal, err := quorum.NewBallot(electorate)
	if err != nil {
		p.failBallot(alloc, pb)
		return
	}
	pb.ballot = bal
	if !p.p.DisableDynamicLinear {
		_ = bal.SetDistinguished(pb.owner) // no tie-break when the owner is no voter
	}
	if pb.purpose == purposeCommon {
		// Conflict detection: with many ballots in flight, no two open
		// ballots at this allocator may touch the same address. Proposal
		// selection already skips reserved addresses, so a hit here means a
		// stale retry raced a newer ballot — re-run the request.
		if alloc.grants.Reserved(pb.addr) {
			p.rt.Coll.Inc("ballots_conflict")
			p.rt.Trace(obs.Event{Kind: obs.EvBallotAbort, Node: alloc.id, Peer: pb.requestor, Addr: pb.addr, Span: pb.span, Detail: "conflict"})
			p.reallocate(alloc, pb, 0, pb.reqPathHops)
			return
		}
		// The allocator's own vote is a grant like any other: if it
		// already granted this address to another allocator's ballot, it
		// must not open a competing one — back off and retry. Otherwise
		// the grant also reserves the proposal, so concurrent requests at
		// this allocator cannot pick the same address.
		if !alloc.grants.Reserve(pb.addr, alloc.id, pb.id, p.rt.Sim.Now()) {
			backoff := quorumTimeout +
				time.Duration(p.rt.Sim.Rand().Int63n(int64(quorumTimeout)+1))
			p.rt.Coll.Inc("ballots_contended")
			p.reallocate(alloc, pb, backoff, pb.reqPathHops)
			return
		}
	}
	alloc.ballots[pb.id] = pb
	purpose := "common"
	if pb.purpose == purposeSplit {
		purpose = "split"
	}
	p.rt.Trace(obs.Event{Kind: obs.EvBallotOpen, Node: alloc.id, Peer: pb.requestor, Addr: pb.addr, MsgID: pb.id, Span: pb.span, Detail: purpose})
	if inflight := alloc.openCommonBallots(); pb.purpose == purposeCommon && inflight > 1 {
		p.rt.Trace(obs.Event{Kind: obs.EvBallotPipelined, Node: alloc.id, Peer: pb.requestor, Addr: pb.addr, MsgID: pb.id, Span: pb.span,
			Detail: "inflight=" + strconv.Itoa(inflight)})
	}

	var selfEntry addrspace.Entry
	haveSelf := false
	if e, ok := alloc.localEntry(pb.owner, pb.addr); ok {
		_ = bal.Cast(alloc.id, e)
		selfEntry, haveSelf = e, true
	}
	// The cache only ever stands in for affirmative votes on the
	// allocator's own space: members confirmed in sync hold the same entry
	// the allocator does, and competing borrowers still hit the
	// allocator's self-grant (see votecache.go for the safety argument).
	useCache := pb.purpose == purposeCommon && pb.owner == alloc.id &&
		haveSelf && selfEntry.Status == addrspace.Free
	for _, m := range electorate {
		if m == alloc.id {
			continue
		}
		if useCache && alloc.qdset[m] {
			now := p.rt.Sim.Now()
			if ok, expired := alloc.voteCache.fresh(m, now); ok {
				_ = bal.Cast(m, selfEntry)
				p.rt.Trace(obs.Event{Kind: obs.EvVoteCacheHit, Node: alloc.id, Peer: m, Addr: pb.addr, MsgID: pb.id, Span: pb.span})
				continue
			} else if expired {
				p.rt.Trace(obs.Event{Kind: obs.EvVoteCacheInvalidate, Node: alloc.id, Peer: m, Addr: pb.addr, Detail: "ttl"})
			}
		}
		if hops, ok := p.sendSpan(alloc.id, m, msg.TQuorumClt, metrics.CatConfig, pb.span, msg.QuorumClt{
			BallotID:  pb.id,
			Owner:     pb.owner,
			Addr:      pb.addr,
			Split:     pb.purpose == purposeSplit,
			Allocator: alloc.id,
		}); ok {
			pb.sentHops[m] = hops
		}
	}
	pb.timer = p.rt.Sim.Schedule(quorumTimeout, func() { p.onBallotTimeout(alloc, pb) })
	p.checkBallot(alloc, pb)
}

func (p *Protocol) onQuorumClt(nd *node, m netstack.Message, pl msg.QuorumClt) {
	if p.byzVoteLie(nd, m.Src, m.Category, pl) {
		return
	}
	entry, has := addrspace.Entry{}, false
	busy := false
	if nd.isHead() {
		entry, has = nd.localEntry(pl.Owner, pl.Addr)
		// A vote is an exclusive grant (§II-C mutual exclusion): while
		// another ballot holds this voter's vote for the address, reply
		// busy so two allocators cannot both read "free" and assign.
		// Split ballots approve a block handover, not an address, and do
		// not contend.
		if has && !pl.Split && nd.grants != nil {
			busy = !nd.grants.Grant(pl.Addr, m.Src, pl.BallotID, p.rt.Sim.Now())
		}
	}
	_, _ = p.sendSpan(nd.id, m.Src, msg.TQuorumCfm, m.Category, m.Span, msg.QuorumCfm{
		BallotID:   pl.BallotID,
		Entry:      entry,
		HasReplica: has,
		Busy:       busy,
	})
}

func (p *Protocol) onQuorumCfm(alloc *node, m netstack.Message, pl msg.QuorumCfm) {
	pb, ok := alloc.ballots[pl.BallotID]
	if !ok || pb.done {
		return
	}
	if pl.Busy {
		// Another allocator holds this voter's vote for the address:
		// abort and retry after a jittered backoff so one of the
		// contenders wins the next round.
		p.rt.Coll.Inc("ballots_contended")
		p.rt.Trace(obs.Event{Kind: obs.EvBallotAbort, Node: alloc.id, Peer: m.Src, Addr: pb.addr, MsgID: pb.id, Span: pb.span, Detail: "contended"})
		p.closeBallot(alloc, pb)
		backoff := quorumTimeout +
			time.Duration(p.rt.Sim.Rand().Int63n(int64(quorumTimeout)+1))
		p.reallocate(alloc, pb, backoff, pb.reqPathHops+pb.maxRTT)
		return
	}
	if !pl.HasReplica {
		// The voter lost (or never had) the replica: drop it from the
		// electorate so the ballot can still reach quorum among holders.
		if alloc.voteCache.invalidate(m.Src) {
			p.rt.Trace(obs.Event{Kind: obs.EvVoteCacheInvalidate, Node: alloc.id, Peer: m.Src, Detail: "no_replica"})
		}
		p.shrinkBallot(alloc, pb, m.Src)
		return
	}
	if err := pb.ballot.Cast(m.Src, pl.Entry); err != nil {
		return
	}
	p.rt.Trace(obs.Event{Kind: obs.EvBallotVote, Node: alloc.id, Peer: m.Src, Addr: pb.addr, MsgID: pb.id, Span: pb.span})
	// A vote matching the allocator's own entry proves the member is in
	// sync on this space — it can stand in for the member's next vote.
	if pb.owner == alloc.id {
		if local, ok := alloc.localEntry(pb.owner, pb.addr); ok && local == pl.Entry {
			alloc.voteCache.confirm(m.Src, p.rt.Sim.Now())
		}
	}
	if rtt := 2 * pb.sentHops[m.Src]; rtt > pb.maxRTT {
		pb.maxRTT = rtt
	}
	p.checkBallot(alloc, pb)
}

// shrinkBallot drops a member from the ballot's electorate; the votes
// already received stand.
func (p *Protocol) shrinkBallot(alloc *node, pb *pendingBallot, drop radio.NodeID) {
	if !pb.ballot.Drop(drop) {
		p.failBallot(alloc, pb)
		return
	}
	p.checkBallot(alloc, pb)
}

// checkBallot completes the ballot once a strict majority of votes is in.
// The distinguished-node tie-break (dynamic linear voting, §II-D) is
// reserved for the timeout path: it rescues exact-half splits when members
// stop responding, rather than letting an allocator skip fresh reads.
func (p *Protocol) checkBallot(alloc *node, pb *pendingBallot) {
	if pb.done || !pb.ballot.HasStrictMajority() {
		return
	}
	p.finishBallot(alloc, pb)
}

// onBallotTimeout fires when votes are still missing after quorumTimeout:
// unreachable members are dropped (and fed into the §V-B quorum-adjustment
// machinery); if the remaining votes form a quorum the ballot completes,
// otherwise it fails and the requestor retries later.
func (p *Protocol) onBallotTimeout(alloc *node, pb *pendingBallot) {
	if pb.done || !alloc.alive {
		return
	}
	snap := p.snapshot()
	for _, v := range pb.ballot.Outstanding() {
		if v == alloc.id {
			continue
		}
		if !p.Alive(v) || !snap.Reachable(alloc.id, v) {
			p.suspectMember(alloc, v)
			p.shrinkBallot(alloc, pb, v)
			if pb.done {
				return
			}
		}
	}
	if pb.done {
		return
	}
	if pb.ballot.HasQuorum() {
		p.finishBallot(alloc, pb)
		return
	}
	p.failBallot(alloc, pb)
}

func (p *Protocol) failBallot(alloc *node, pb *pendingBallot) {
	p.rt.Trace(obs.Event{Kind: obs.EvBallotAbort, Node: alloc.id, Addr: pb.addr, MsgID: pb.id, Span: pb.span, Detail: "no_quorum"})
	p.closeBallot(alloc, pb)
	p.rt.Coll.Inc(CounterBallotsFailed)
	p.nack(alloc, pb.requestor, pb.reqPathHops)
}

func (p *Protocol) closeBallot(alloc *node, pb *pendingBallot) {
	pb.done = true
	if pb.timer != nil {
		pb.timer.Cancel()
	}
	delete(alloc.ballots, pb.id) // a no-op once alloc was reset
	alloc.grants.Close(pb.addr, alloc.id, pb.id)
	if pb.purpose == purposeCommon && len(alloc.allocQueue) > 0 {
		// Zero-delay so the closing request's own follow-up ballot (retry
		// after "occupied", commit propagation) settles before queued
		// requests compete for the freed window slot.
		p.rt.Sim.Schedule(0, func() { p.drainAllocQueue(alloc) })
	}
}

func (p *Protocol) finishBallot(alloc *node, pb *pendingBallot) {
	dec, err := pb.ballot.Decide()
	if err != nil {
		p.failBallot(alloc, pb)
		return
	}
	p.closeBallot(alloc, pb)
	switch pb.purpose {
	case purposeCommon:
		p.finishCommonBallot(alloc, pb, dec)
	case purposeSplit:
		p.finishSplitBallot(alloc, pb)
	}
}

func (p *Protocol) finishCommonBallot(alloc *node, pb *pendingBallot, dec quorum.Decision) {
	if !dec.Available {
		// Freshest replica says occupied: adopt it and move to the next
		// candidate address.
		alloc.applyNewer(pb.owner, pb.addr, dec.Entry)
		p.rt.Coll.Inc(CounterProposalsRejected)
		p.rt.Trace(obs.Event{Kind: obs.EvBallotAbort, Node: alloc.id, Addr: pb.addr, MsgID: pb.id, Span: pb.span, Detail: "occupied"})
		if pb.proposals >= maxProposals {
			p.rt.Coll.Inc(CounterConfigNacks)
			p.nack(alloc, pb.requestor, pb.reqPathHops)
			return
		}
		owner, addr, ok := p.proposal(alloc, pb)
		if !ok {
			p.nack(alloc, pb.requestor, pb.reqPathHops)
			return
		}
		p.startBallot(alloc, &pendingBallot{
			purpose:     purposeCommon,
			owner:       owner,
			addr:        addr,
			requestor:   pb.requestor,
			reqPathHops: pb.reqPathHops + pb.maxRTT,
			proposals:   pb.proposals + 1,
			span:        pb.span,
			viaAgent:    pb.viaAgent,
			agent:       pb.agent,
		})
		return
	}
	// Commit the write at the quorum (§II-C): bump the version and
	// propagate to every replica holder. The applyEntry wiped the vote
	// cache (own-pool write); members the update demonstrably reached are
	// re-confirmed below, so under steady churn the next ballot runs on
	// cache hits alone. Members the send could not reach stay invalidated.
	newEntry := addrspace.Entry{Status: addrspace.Occupied, Version: dec.Entry.Version + 1}
	alloc.applyEntry(pb.owner, pb.addr, newEntry)
	p.rt.Trace(obs.Event{Kind: obs.EvBallotCommit, Node: alloc.id, Peer: pb.requestor, Addr: pb.addr, MsgID: pb.id, Span: pb.span})
	for _, h := range pb.ballot.Voters() {
		if h == alloc.id {
			continue
		}
		if _, ok := p.sendSpan(alloc.id, h, msg.TQuorumUpd, metrics.CatConfig, pb.span, msg.QuorumUpd{
			Owner: pb.owner,
			Addr:  pb.addr,
			Entry: newEntry,
		}); ok && pb.owner == alloc.id {
			alloc.voteCache.confirm(h, p.rt.Sim.Now())
		}
	}
	if pb.owner != alloc.id {
		p.rt.Coll.Inc(CounterBorrowed)
	}
	alloc.members[pb.requestor] = pb.addr
	grant := msg.ComCfg{
		Addr:       pb.addr,
		NetworkID:  alloc.networkID,
		Configurer: alloc.id,
		PathHops:   pb.reqPathHops + pb.maxRTT,
	}
	if pb.viaAgent {
		_, _ = p.sendSpan(alloc.id, pb.agent, msg.TAgentCfg, metrics.CatConfig, pb.span, msg.AgentCfg{
			Requestor: pb.requestor,
			Grant:     grant,
		})
		return
	}
	_, _ = p.sendSpan(alloc.id, pb.requestor, msg.TComCfg, metrics.CatConfig, pb.span, grant)
}

// --- common node configuration (requestor side) --------------------------

func (p *Protocol) onComCfg(nd *node, m netstack.Message, pl msg.ComCfg) {
	if nd.hasIP || !nd.alive {
		return
	}
	nd.ip = pl.Addr
	nd.hasIP = true
	nd.role = RoleCommon
	nd.networkID = pl.NetworkID
	nd.configurer = pl.Configurer
	nd.hasConfigurer = true
	nd.configuring = false
	p.ipOwner[pl.Addr] = nd.id
	if nd.cfgTimer != nil {
		nd.cfgTimer.Cancel()
		nd.cfgTimer = nil
	}
	p.rt.Trace(obs.Event{Kind: obs.EvAllocGrant, Node: nd.id, Peer: pl.Configurer, Addr: pl.Addr, Span: m.Span})
	p.rt.Trace(obs.Event{Kind: obs.EvNodeConfigured, Node: nd.id, Peer: pl.Configurer, Addr: pl.Addr, Span: m.Span})
	_, _ = p.sendSpan(nd.id, pl.Configurer, msg.TComAck, metrics.CatConfig, m.Span, msg.ComAck{
		Addr:     pl.Addr,
		PathHops: pl.PathHops + m.Hops,
	})
}

// onConfiguredAck finalizes one configuration at the allocator and records
// the latency sample.
func (p *Protocol) onConfiguredAck(alloc *node, pathHops int, head bool) {
	p.rt.Coll.Observe(protocol.SampleConfigLatency, float64(pathHops))
	p.rt.Coll.Inc(CounterConfigured)
	if head {
		p.rt.Coll.Inc(CounterConfiguredHeads)
	}
}

func (p *Protocol) onCfgNack(nd *node) {
	if nd.hasIP || !nd.alive {
		return
	}
	if nd.cfgTimer != nil {
		nd.cfgTimer.Cancel()
		nd.cfgTimer = nil
	}
	p.retryConfigureLater(nd)
}

// --- cluster head configuration (Table 1) --------------------------------

func (p *Protocol) onChReq(alloc *node, m netstack.Message, pl msg.ChReq) {
	if !alloc.isHead() || alloc.pools == nil {
		p.nack(alloc, m.Src, pl.PathHops+m.Hops)
		return
	}
	// Preview the split without committing it.
	var proposal addrspace.Block
	found := false
	var bestFree uint32
	for _, t := range alloc.pools.Tables() {
		if t.Block().Size() < 2 {
			continue
		}
		if f := t.FreeCount(); !found || f > bestFree {
			_, upper, err := t.Block().SplitHalf()
			if err != nil {
				continue
			}
			proposal, bestFree, found = upper, f, true
		}
	}
	if !found {
		p.nack(alloc, m.Src, pl.PathHops+m.Hops)
		return
	}
	_, _ = p.sendSpan(alloc.id, m.Src, msg.TChPrp, metrics.CatConfig, m.Span, msg.ChPrp{
		Block:    proposal,
		PathHops: pl.PathHops + m.Hops,
	})
}

func (p *Protocol) onChPrp(nd *node, m netstack.Message, pl msg.ChPrp) {
	if nd.hasIP || !nd.alive {
		return
	}
	_, _ = p.sendSpan(nd.id, m.Src, msg.TChCnf, metrics.CatConfig, m.Span, msg.ChCnf{
		Block:    pl.Block,
		PathHops: pl.PathHops + m.Hops,
	})
}

func (p *Protocol) onChCnf(alloc *node, m netstack.Message, pl msg.ChCnf) {
	if !alloc.isHead() {
		return
	}
	p.startBallot(alloc, &pendingBallot{
		purpose:     purposeSplit,
		owner:       alloc.id,
		addr:        pl.Block.Lo, // ballot subject: the block being carved
		requestor:   m.Src,
		reqPathHops: pl.PathHops + m.Hops,
		proposals:   1,
		span:        m.Span,
	})
}

func (p *Protocol) finishSplitBallot(alloc *node, pb *pendingBallot) {
	// The quorum approved the split; availability of the marker address is
	// irrelevant — the write being committed is the block handover.
	upper, err := alloc.pools.SplitLargest()
	if err != nil {
		p.nack(alloc, pb.requestor, pb.reqPathHops)
		return
	}
	p.rt.Trace(obs.Event{Kind: obs.EvBallotCommit, Node: alloc.id, Peer: pb.requestor, Addr: pb.addr, MsgID: pb.id, Span: pb.span, Detail: "split"})
	for _, h := range sortedIDs(alloc.qdset) {
		_, _ = p.sendSpan(alloc.id, h, msg.TSplitUpd, metrics.CatConfig, pb.span, msg.SplitUpd{
			Owner:   alloc.id,
			NewPool: alloc.pools.Clone(),
			NewHead: pb.requestor,
		})
	}
	_, _ = p.sendSpan(alloc.id, pb.requestor, msg.TChCfg, metrics.CatConfig, pb.span, msg.ChCfg{
		Table:      upper,
		NetworkID:  alloc.networkID,
		Configurer: alloc.id,
		PathHops:   pb.reqPathHops + pb.maxRTT,
	})
}

func (p *Protocol) onChCfg(nd *node, m netstack.Message, pl msg.ChCfg) {
	if nd.hasIP || !nd.alive || pl.Table == nil {
		return
	}
	pool := addrspace.NewPool(pl.Table)
	ip, ok := pool.FirstFree()
	if !ok {
		return // unusable block; keep retrying via timeout
	}
	_, _ = pool.Mark(ip, addrspace.Occupied)
	p.initHead(nd, pool, ip, pl.NetworkID, pl.Configurer, true)
	nd.configuring = false
	p.rt.Trace(obs.Event{Kind: obs.EvAllocGrant, Node: nd.id, Peer: pl.Configurer, Addr: nd.ip, Span: m.Span, Detail: "head"})
	_, _ = p.sendSpan(nd.id, pl.Configurer, msg.TChAck, metrics.CatConfig, m.Span, msg.ChAck{
		PathHops: pl.PathHops + m.Hops,
	})
	p.completeHeadSetup(nd)
}

// --- agent relay (§V-A) ---------------------------------------------------

func (p *Protocol) onAgentFwd(cfgr *node, m netstack.Message, pl msg.AgentFwd) {
	p.allocate(cfgr, pl.Requestor, pl.PathHops+m.Hops, true, m.Src, m.Span)
}

func (p *Protocol) onAgentCfg(agent *node, m netstack.Message, pl msg.AgentCfg) {
	grant := pl.Grant
	grant.PathHops += m.Hops
	_, _ = p.sendSpan(agent.id, pl.Requestor, msg.TComCfg, metrics.CatConfig, m.Span, grant)
}
