package daemon

// Protocol message handling and the allocation/reclamation state machines.
// Everything in this file runs on the event-loop goroutine.

import (
	"slices"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/quorum"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// handle dispatches one received envelope. A message from a member of the
// electorate is proof of life; any other source — a joiner not yet
// admitted, an ID a raw socket invented — has no record to leave liveness
// in (the owner stamps a joiner when it admits it, and tick grants grace on
// first sight of a new member).
func (d *Daemon) handle(env *wire.Envelope) {
	if m := d.member(env.Src); m != nil {
		m.lastSeen = time.Now()
	}
	switch p := env.Payload.(type) {
	case msg.ChReq:
		d.onJoinRequest(env.Src, 0, env.Span)
	case msg.AgentFwd:
		d.onJoinRequest(p.Requestor, env.Src, env.Span)
	case msg.AgentCfg:
		d.onAgentCfg(env.Src, p, env.Span)
	case msg.ComReq:
		d.onAllocRequest(env.Src, env.Span)
	case msg.ComCfg:
		d.onGrant(env.Src, p, env.Span)
	case msg.CfgNack:
		d.onNack(env.Span)
	case msg.ReplicaDist:
		d.onReplicaDist(env.Src, p)
	case msg.ReplicaAck:
		d.onReplicaAck(env.Src)
	case msg.ReturnAddr:
		d.onReturnAddr(env.Src, p)
	case msg.DepartAck:
		d.onDepartAck()
	case msg.QuorumClt:
		d.onQuorumClt(env.Src, p, env.Span)
	case msg.QuorumCfm:
		d.onQuorumCfm(env.Src, p)
	case msg.QuorumUpd:
		d.onQuorumUpd(p)
	case msg.UpdateLoc:
		d.onUpdateLoc(p)
	case msg.RepReq:
		d.sendTo(env.Src, msg.TRepRsp, metrics.CatHello, msg.RepRsp{})
	case msg.RepRsp, msg.ChAck, msg.ComAck:
		// Liveness only: lastSeen already refreshed above.
	case msg.AddrRec:
		d.onAddrRec(env.Src, p, env.Span)
	case msg.RecRep:
		d.onRecRep(env.Src, p)
	default:
		d.coll.Inc("daemon.unhandled_msg")
	}
}

// --- joining -------------------------------------------------------------

// onJoinRequest handles CH_REQ (agent == 0: the joiner reached us directly)
// and AGENT_FWD (agent relayed a joiner that does not know the owner).
// span is the joiner's causal trace, carried through ballot and grant.
func (d *Daemon) onJoinRequest(requestor, agent radio.NodeID, span uint64) {
	if requestor == d.cfg.ID {
		return
	}
	if !d.owner {
		// Members relay toward the owner; a daemon that has not joined yet
		// cannot help and stays silent (the joiner retries another seed).
		if d.joined && agent == 0 {
			d.sendSpan(d.ownerID, msg.TAgentFwd, metrics.CatConfig, span, msg.AgentFwd{Requestor: requestor, PathHops: 1})
		}
		return
	}

	if m := d.member(requestor); m != nil {
		m.dead = false // a member asking again is alive, whatever the detector said
		if m.ip != 0 {
			// Duplicate CH_REQ: the previous grant was lost in flight. Re-send;
			// every step of the grant is idempotent at the receiver.
			d.sendJoinGrant(requestor, agent, m.ip, span)
			return
		}
	}
	if d.joinInFlight[requestor] {
		return
	}
	d.joinInFlight[requestor] = true
	d.startBallot(requestor, span, func(addr addrspace.Addr, ok bool) {
		delete(d.joinInFlight, requestor)
		if !ok {
			d.coll.Inc("daemon.join_fail")
			if agent == 0 {
				d.sendSpan(requestor, msg.TNack, metrics.CatConfig, span, msg.CfgNack{})
			}
			return
		}
		m := d.admit(requestor)
		m.ip = addr
		m.lastSeen = time.Now()
		d.holders[addr] = requestor
		d.coll.Inc("daemon.joins")
		d.sendJoinGrant(requestor, agent, addr, span)
		d.logf("admitted %d as %v; electorate %v", requestor, addr, d.electorate())
	})
}

// sendJoinGrant delivers the admission: the address grant (via the relay
// agent when there is one), the replica + electorate to everyone, and the
// full holder map to the newcomer.
func (d *Daemon) sendJoinGrant(requestor, agent radio.NodeID, ip addrspace.Addr, span uint64) {
	grant := msg.ComCfg{Addr: ip, NetworkID: d.networkID, Configurer: d.cfg.ID, PathHops: 1}
	if agent != 0 {
		d.sendSpan(agent, msg.TAgentCfg, metrics.CatConfig, span, msg.AgentCfg{Requestor: requestor, Grant: grant})
	} else {
		d.sendSpan(requestor, msg.TComCfg, metrics.CatConfig, span, grant)
	}
	d.broadcastReplica()
	for addr, h := range d.holders {
		d.sendTo(requestor, msg.TUpdateLoc, metrics.CatSync, msg.UpdateLoc{Configurer: h, ConfigurerIP: d.ipOf(h), Addr: addr})
	}
}

// onAgentCfg is the relay leg: the owner answered a join we forwarded.
func (d *Daemon) onAgentCfg(src radio.NodeID, p msg.AgentCfg, span uint64) {
	if p.Requestor == d.cfg.ID {
		d.onGrant(src, p.Grant, span)
		return
	}
	d.coll.Inc("daemon.agent_relays")
	d.sendSpan(p.Requestor, msg.TComCfg, metrics.CatConfig, span, p.Grant)
}

// onGrant handles COM_CFG: our own configuration while joining, or an
// allocation we requested on behalf of an HTTP client once joined.
func (d *Daemon) onGrant(src radio.NodeID, g msg.ComCfg, span uint64) {
	if !d.hasIP {
		d.selfIP = g.Addr
		d.hasIP = true
		d.networkID = g.NetworkID
		d.ownerID = g.Configurer
		d.holders[g.Addr] = d.cfg.ID
		d.trace(obs.Event{Kind: obs.EvAllocGrant, Peer: g.Configurer, Addr: g.Addr, Span: span, Detail: "join"})
		d.sendTo(g.Configurer, msg.TChAck, metrics.CatConfig, msg.ChAck{})
		d.checkJoined()
		return
	}
	if g.Addr == d.selfIP {
		return // our join grant again: the owner re-sends it on a retried CH_REQ
	}
	w, waiting := d.takeAllocWaiter(span)
	if !waiting {
		// The HTTP caller gave up before the grant arrived, so nobody will
		// ever use this address: hand it straight back.
		d.coll.Inc("daemon.alloc_orphan_grants")
		d.sendSpan(src, msg.TReturnAddr, metrics.CatConfig, span,
			msg.ReturnAddr{Configurer: d.cfg.ID, ConfigurerIP: d.selfIP, Addr: g.Addr})
		return
	}
	d.holders[g.Addr] = d.cfg.ID
	d.trace(obs.Event{Kind: obs.EvAllocGrant, Peer: src, Addr: g.Addr, Span: span})
	d.sendTo(src, msg.TComAck, metrics.CatConfig, msg.ComAck{Addr: g.Addr})
	w <- allocResult{addr: g.Addr, ok: true} // buffered
}

// onNack: the allocation we forwarded under span failed (space exhausted or
// no quorum). A join's CFG_NACK finds no waiter — the join retry timer
// covers it.
func (d *Daemon) onNack(span uint64) {
	if w, waiting := d.takeAllocWaiter(span); waiting {
		w <- allocResult{} // buffered
	}
}

// takeAllocWaiter removes and returns the HTTP caller waiting on the
// forwarded allocation span; false when there is none (any more). It is
// also how a caller that times out withdraws.
func (d *Daemon) takeAllocWaiter(span uint64) (chan allocResult, bool) {
	w, ok := d.allocWaiters[span]
	delete(d.allocWaiters, span)
	return w, ok
}

// onReplicaDist adopts the owner's authoritative view: electorate (as a set
// difference against the roster, see adopt), owner identity, and — for
// designated replica holders — any fresher table entries, confirmed back
// with REPLICA_ACK so the owner's health monitor can count this replica.
// Membership-only distributions (nil Pool, sent to non-holders under a
// bounded ReplicationTarget) update the electorate without touching the
// table and are not acknowledged as replicas.
func (d *Daemon) onReplicaDist(src radio.NodeID, p msg.ReplicaDist) {
	info := p.Info
	d.ownerID = info.Owner
	d.owner = info.Owner == d.cfg.ID
	d.adopt(info.Holders)
	if m := d.member(info.Owner); m != nil && info.OwnerIP != 0 {
		m.ip = info.OwnerIP
	}
	d.haveMembership = true
	d.trace(obs.Event{Kind: obs.EvReplicaAdopt, Peer: info.Owner, Addr: info.OwnerIP})
	if info.Pool != nil {
		for _, tab := range info.Pool.Tables() {
			if d.table == nil {
				d.table = tab.Clone()
			} else {
				d.table.AdoptNewer(tab)
			}
		}
		if !d.owner {
			d.sendTo(src, msg.TReplicaAck, metrics.CatSync,
				msg.ReplicaAck{Info: msg.HolderInfo{Owner: d.cfg.ID, OwnerIP: d.selfIP}})
		}
	}
	d.coll.Inc("daemon.replica_dists")
	d.checkJoined()
}

func (d *Daemon) checkJoined() {
	if d.joined || !d.hasIP || !d.haveMembership {
		return
	}
	d.joined = true
	d.coll.Inc("daemon.joined")
	if !d.joinStarted.IsZero() {
		d.hists.Observe(obs.HistConfigLatency, 1e-6, time.Since(d.joinStarted).Microseconds())
	}
	d.trace(obs.Event{Kind: obs.EvNodeConfigured, Peer: d.ownerID, Addr: d.selfIP, Span: d.joinSpan})
	d.logf("joined: ip=%v owner=%d electorate=%v", d.selfIP, int(d.ownerID), d.electorate())
}

// --- allocation ballots --------------------------------------------------

// allocateLocal serves one HTTP /v1/allocate: the owner ballots directly,
// members forward a COM_REQ to the owner and file the waiter under the
// request's span, which COM_CFG and CFG_NACK carry back. Either way the
// request mints a fresh span here — this daemon is the causal origin — and
// returns it, so that a caller that gives up can take its waiter back.
func (d *Daemon) allocateLocal(res chan allocResult) uint64 {
	if !d.joined {
		res <- allocResult{}
		return 0
	}
	span := d.mintSpan()
	if d.owner {
		d.trace(obs.Event{Kind: obs.EvAllocRequest, Span: span, Detail: "local"})
		d.startBallot(d.cfg.ID, span, func(addr addrspace.Addr, ok bool) {
			if ok {
				d.holders[addr] = d.cfg.ID
				d.trace(obs.Event{Kind: obs.EvAllocGrant, Addr: addr, Span: span, Detail: "local"})
			} else {
				d.coll.Inc("daemon.alloc_fail")
			}
			res <- allocResult{addr: addr, ok: ok}
		})
		return span
	}
	d.trace(obs.Event{Kind: obs.EvAllocRequest, Peer: d.ownerID, Span: span, Detail: "forward"})
	d.allocWaiters[span] = res
	d.sendSpan(d.ownerID, msg.TComReq, metrics.CatConfig, span, msg.ComReq{PathHops: 1})
	return span
}

// onAllocRequest is the owner leg of a member-forwarded /v1/allocate.
func (d *Daemon) onAllocRequest(requestor radio.NodeID, span uint64) {
	if !d.owner {
		return // stale owner view at the sender; its failure detector catches up
	}
	d.startBallot(requestor, span, func(addr addrspace.Addr, ok bool) {
		if !ok {
			d.coll.Inc("daemon.alloc_fail")
			d.sendSpan(requestor, msg.TNack, metrics.CatConfig, span, msg.CfgNack{})
			return
		}
		d.holders[addr] = requestor
		d.sendSpan(requestor, msg.TComCfg, metrics.CatConfig, span, msg.ComCfg{Addr: addr, NetworkID: d.networkID, Configurer: d.cfg.ID, PathHops: 1})
	})
}

// startBallot begins the quorum vote for one fresh address on behalf of
// requestor; reply fires exactly once with the outcome. span ties the
// ballot (and every vote it collects) to the allocation that caused it.
func (d *Daemon) startBallot(requestor radio.NodeID, span uint64, reply func(addr addrspace.Addr, ok bool)) {
	d.propose(&ballot{requestor: requestor, span: span, reply: reply})
}

// propose starts (or restarts, after an abort) one voting round over the
// roster as it stands — self and members declared dead included, so the
// majority does not shrink with the failure detector's verdicts. A restart
// moves on to the next candidate above the aborted one, which the voters
// that granted the aborted round keep answering Busy for until their grant
// expires.
func (d *Daemon) propose(b *ballot) {
	if b.attempts >= d.cfg.MaxProposals {
		b.reply(0, false)
		return
	}
	from := d.table.Block().Lo
	if b.attempts > 0 {
		if b.addr == d.table.Block().Hi {
			b.reply(0, false) // nothing above the aborted candidate
			return
		}
		from = b.addr + 1
	}
	b.attempts++
	cand, ok := d.pickCandidate(from)
	if !ok {
		b.reply(0, false) // space exhausted
		return
	}
	tally, err := quorum.NewBallot(d.electorate())
	if err != nil {
		b.reply(0, false) // an empty roster: nobody to vote
		return
	}
	d.ballotSeq++
	b.id = d.ballotSeq
	b.addr = cand
	b.openedAt = time.Now()
	b.tally = tally
	d.ballots[b.id] = b
	d.pendingAddrs[cand] = true
	d.coll.Inc("daemon.ballots")
	d.trace(obs.Event{Kind: obs.EvBallotOpen, Peer: b.requestor, Addr: b.addr, MsgID: b.id, Span: b.span})

	// The allocator votes for itself with its own replica entry.
	e, _ := d.table.Get(cand)
	_ = b.tally.Cast(d.cfg.ID, e)
	for _, m := range d.peers() {
		d.sendSpan(m.id, msg.TQuorumClt, metrics.CatConfig, b.span, msg.QuorumClt{BallotID: b.id, Owner: d.cfg.ID, Addr: cand, Allocator: d.cfg.ID})
	}
	ballotID := b.id
	b.timer = d.after(d.cfg.QuorumTimeout, func() { d.ballotTimeout(ballotID) })
	d.evalBallot(b) // a single-member electorate commits immediately
}

// pickCandidate returns the lowest free address at or above from with no
// ballot in flight.
func (d *Daemon) pickCandidate(from addrspace.Addr) (addrspace.Addr, bool) {
	for {
		a, ok := d.table.NextFree(from)
		if !ok || !d.pendingAddrs[a] {
			return a, ok
		}
		if a == d.table.Block().Hi {
			return 0, false
		}
		from = a + 1
	}
}

// abortBallot retires the current round and proposes the next candidate.
func (d *Daemon) abortBallot(b *ballot) {
	d.trace(obs.Event{Kind: obs.EvBallotAbort, Addr: b.addr, MsgID: b.id, Span: b.span, Detail: "retry"})
	d.clearBallot(b)
	d.coll.Inc("daemon.ballot_retries")
	d.propose(b)
}

func (d *Daemon) clearBallot(b *ballot) {
	delete(d.ballots, b.id)
	delete(d.pendingAddrs, b.addr)
	if b.timer != nil {
		b.timer.Stop()
	}
}

func (d *Daemon) ballotTimeout(ballotID uint64) {
	b, ok := d.ballots[ballotID]
	if !ok {
		return
	}
	d.coll.Inc("daemon.ballot_timeouts")
	d.abortBallot(b)
}

// onQuorumClt is the voter side: report the local replica entry and grant
// the vote to at most one ballot at a time (the paper's mutual exclusion
// rule — a voter that has promised an address to one allocator answers
// everyone else Busy until the grant expires or commits).
func (d *Daemon) onQuorumClt(src radio.NodeID, p msg.QuorumClt, span uint64) {
	cfm := msg.QuorumCfm{BallotID: p.BallotID}
	if d.table != nil {
		if e, ok := d.table.Get(p.Addr); ok {
			cfm.HasReplica = true
			cfm.Entry = e
			now := time.Now()
			if g, held := d.grants[p.Addr]; held && g.ballotID != p.BallotID && now.Before(g.expires) {
				cfm.Busy = true
			} else {
				d.grants[p.Addr] = voteGrant{ballotID: p.BallotID, expires: now.Add(2 * d.cfg.QuorumTimeout)}
			}
		}
	}
	d.trace(obs.Event{Kind: obs.EvBallotVote, Peer: src, Addr: p.Addr, MsgID: p.BallotID, Span: span, Detail: "cast"})
	d.sendSpan(src, msg.TQuorumCfm, metrics.CatConfig, span, cfm)
}

// onQuorumCfm tallies one vote: Busy abandons the candidate, a voter
// without a replica has nothing to read and leaves the round's electorate,
// and any other vote read-repairs the local replica and counts — once, and
// only from the electorate the round opened with.
func (d *Daemon) onQuorumCfm(src radio.NodeID, p msg.QuorumCfm) {
	b, ok := d.ballots[p.BallotID]
	if !ok {
		return // late vote for a closed ballot
	}
	d.trace(obs.Event{Kind: obs.EvBallotVote, Peer: src, Addr: b.addr, MsgID: b.id, Span: b.span})
	switch {
	case p.Busy:
		d.abortBallot(b) // someone promised this address elsewhere
		return
	case !p.HasReplica:
		b.tally.Drop(src) // a round left without voters times out
	case b.tally.Cast(src, p.Entry) != nil:
		return // an outsider or a repeat
	default:
		if cur, ok := d.table.Get(b.addr); ok && p.Entry.Newer(cur) {
			_ = d.table.Set(b.addr, p.Entry)
		}
	}
	d.evalBallot(b)
}

// evalBallot decides the round once a strict majority of its electorate has
// voted: the freshest copy among the votes commits the candidate if it is
// free and moves on to the next one if it is occupied.
func (d *Daemon) evalBallot(b *ballot) {
	if !b.tally.HasStrictMajority() {
		return
	}
	if dec, err := b.tally.Decide(); err == nil && dec.Available {
		d.commitBallot(b, dec.Entry.Version)
	} else {
		d.abortBallot(b)
	}
}

// commitBallot marks the address occupied with a version stamp strictly
// above the freshest copy the quorum read, and pushes the update — and who
// administers the address now — to the electorate. A joiner is not a peer
// yet: it learns the holders from sendJoinGrant.
func (d *Daemon) commitBallot(b *ballot, ver uint64) {
	d.clearBallot(b)
	_ = d.table.Set(b.addr, addrspace.Entry{Status: addrspace.Free, Version: ver})
	e, err := d.table.Mark(b.addr, addrspace.Occupied)
	if err != nil {
		b.reply(0, false)
		return
	}
	d.hists.Observe(obs.HistBallotRTT, 1e-6, time.Since(b.openedAt).Microseconds())
	d.trace(obs.Event{Kind: obs.EvBallotCommit, Peer: b.requestor, Addr: b.addr, MsgID: b.id, Span: b.span})
	// One peer at a time, the requestor last: what a peer gets out of this
	// commit — QUORUM_UPD, the holder's UPDATE_LOC and, from reply below,
	// the requestor's COM_CFG — is queued back to back, so it leaves as one
	// frame even when the peer's transport worker wakes at the first send.
	peers := d.peers()
	if i := slices.IndexFunc(peers, func(m *member) bool { return m.id == b.requestor }); i >= 0 {
		requestor := peers[i]
		peers = append(slices.Delete(peers, i, i+1), requestor)
	}
	for _, m := range peers {
		d.sendSpan(m.id, msg.TQuorumUpd, metrics.CatConfig, b.span, msg.QuorumUpd{Owner: d.cfg.ID, Addr: b.addr, Entry: e})
		d.sendTo(m.id, msg.TUpdateLoc, metrics.CatSync, msg.UpdateLoc{Configurer: b.requestor, ConfigurerIP: d.ipOf(b.requestor), Addr: b.addr})
	}
	d.coll.Inc("daemon.allocs")
	b.reply(b.addr, true)
}

// onQuorumUpd applies a committed update and releases any vote grant.
func (d *Daemon) onQuorumUpd(p msg.QuorumUpd) {
	delete(d.grants, p.Addr)
	if d.table == nil {
		return
	}
	if cur, ok := d.table.Get(p.Addr); ok && p.Entry.Newer(cur) {
		_ = d.table.Set(p.Addr, p.Entry)
		d.coll.Inc("daemon.upds_applied")
	}
	if p.Entry.Status == addrspace.Free {
		delete(d.holders, p.Addr) // reclaimed or returned
	}
}

// onUpdateLoc records who administers an address. Without an auth key any
// socket can send one, so attribution is kept only inside the cluster's
// space — d.holders can never outgrow it — and an IP only for a member.
func (d *Daemon) onUpdateLoc(p msg.UpdateLoc) {
	if !d.cfg.Space.Contains(p.Addr) {
		return
	}
	d.holders[p.Addr] = p.Configurer
	if m := d.member(p.Configurer); m != nil && p.ConfigurerIP != 0 {
		m.ip = p.ConfigurerIP
	}
}

// --- failure detection and reclamation -----------------------------------

// declareDead handles one member going silent past SuspectAfter.
func (d *Daemon) declareDead(m *member) {
	if m.dead {
		return
	}
	m.dead = true
	d.coll.Inc("daemon.deaths_detected")
	d.trace(obs.Event{Kind: obs.EvPeerDead, Peer: m.id, Addr: m.ip, Detail: "heartbeat_miss"})
	d.logf("peer %d declared dead", int(m.id))

	if m.id == d.ownerID && !d.owner {
		// Owner failover: the lowest-ID survivor takes over the space; it
		// holds a full replica, so ownership is a role change, not a copy.
		if i := slices.IndexFunc(d.roster, func(s *member) bool { return !s.dead }); i >= 0 {
			d.ownerID = d.roster[i].id
			if d.ownerID == d.cfg.ID {
				d.owner = true
				d.coll.Inc("daemon.owner_promotions")
				d.trace(obs.Event{Kind: obs.EvHeadElected, Peer: m.id, Addr: d.selfIP, Detail: "failover"})
				d.logf("promoted to owner after owner death")
			}
		}
	}
	if d.owner {
		d.startReclaim(m)
	}
}

// startReclaim begins address reclamation for a dead member: announce
// ADDR_REC, collect REC_REP defenses for ReclaimSettle, then free whatever
// the dead daemon still holds.
func (d *Daemon) startReclaim(target *member) {
	if d.reclaims[target.id] != nil {
		return
	}
	run := &reclaimRun{
		target:    target.id,
		span:      d.mintSpan(),
		startedAt: time.Now(),
		refreshed: make(map[addrspace.Addr]bool),
	}
	d.reclaims[target.id] = run
	d.coll.Inc("daemon.reclaims")
	d.trace(obs.Event{Kind: obs.EvReclaimStart, Peer: target.id, Addr: target.ip, Span: run.span})
	rec := msg.AddrRec{Target: target.id, TargetIP: target.ip}
	for _, m := range d.peers() {
		d.sendSpan(m.id, msg.TAddrRec, metrics.CatReclamation, run.span, rec)
	}
	d.after(d.cfg.ReclaimSettle, func() { d.finishReclaim(target.id) })
}

// onAddrRec is the member side of reclamation: align with the reclaimer's
// death verdict and defend every address we hold ourselves, so a stale
// attribution at the reclaimer cannot free an address still in use.
func (d *Daemon) onAddrRec(src radio.NodeID, p msg.AddrRec, span uint64) {
	if p.Target == d.cfg.ID {
		return // we are alive; our heartbeats are the real rebuttal
	}
	if m := d.member(p.Target); m != nil {
		m.dead = true
	}
	for addr, h := range d.holders {
		if h == d.cfg.ID {
			d.sendSpan(src, msg.TRecRep, metrics.CatReclamation, span, msg.RecRep{Target: p.Target, Addr: addr})
		}
	}
}

// onRecRep records a defense: src claims the address, so it is not the dead
// daemon's to reclaim. Like onUpdateLoc it keeps nothing about an address
// outside the space.
func (d *Daemon) onRecRep(src radio.NodeID, p msg.RecRep) {
	run := d.reclaims[p.Target]
	if run == nil || !d.cfg.Space.Contains(p.Addr) {
		return
	}
	run.refreshed[p.Addr] = true
	d.trace(obs.Event{Kind: obs.EvReclaimDefend, Peer: src, Addr: p.Addr, Span: run.span})
	if d.holders[p.Addr] == p.Target {
		d.holders[p.Addr] = src
	}
}

// finishReclaim frees every undefended address attributed to the dead
// member, expels it from the electorate, and redistributes the replica.
func (d *Daemon) finishReclaim(target radio.NodeID) {
	run := d.reclaims[target]
	if run == nil {
		return
	}
	delete(d.reclaims, target)

	var toFree []addrspace.Addr
	for addr, h := range d.holders {
		if h == target && !run.refreshed[addr] {
			toFree = append(toFree, addr)
		}
	}
	slices.Sort(toFree)
	for _, addr := range toFree {
		e, ok := d.table.Get(addr)
		if !ok {
			continue
		}
		ne := addrspace.Entry{Status: addrspace.Free, Version: e.Version + 1}
		_ = d.table.Set(addr, ne)
		delete(d.holders, addr)
		d.trace(obs.Event{Kind: obs.EvReclaimFree, Peer: target, Addr: addr, Span: run.span})
		for _, m := range d.peers() {
			d.sendSpan(m.id, msg.TQuorumUpd, metrics.CatReclamation, run.span, msg.QuorumUpd{Owner: d.cfg.ID, Addr: addr, Entry: ne})
		}
	}
	d.hists.Observe(obs.HistReclaimTime, 1e-6, time.Since(run.startedAt).Microseconds())
	d.coll.Add("daemon.reclaimed_addrs", int64(len(toFree)))
	d.expel(target)
	d.broadcastReplica()
	d.logf("reclaimed %d addresses from dead peer %d; electorate now %v", len(toFree), int(target), d.electorate())
}
