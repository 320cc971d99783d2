package daemon

// Replica-set management, the embedded replica-health monitor, and the
// on-demand graceful departure exchange. Everything here runs on the
// event-loop goroutine (the public Depart posts into it).
//
// The owner designates a replica set — the deployment QDSet — through one
// rule, refreshReplicaSet. With Config.ReplicationTarget 0 every member is
// designated (full replication); with a target of R the owner keeps the R-1
// lowest-ID live members designated, so the owner-failover successor (the
// lowest-ID survivor) holds a replica. Designated members receive
// REPLICA_DIST with the table and confirm with REPLICA_ACK. Every
// HealthInterval the health monitor measures those leases and names the
// aging ones for a re-sync, and the same rule retires dead holders and
// recruits their replacements — instead of waiting for the T_d reclamation
// path to redistribute.

import (
	"slices"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/health"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// fullReplication reports whether every member is a designated holder.
func (d *Daemon) fullReplication() bool { return d.cfg.ReplicationTarget <= 0 }

// refreshReplicaSet re-derives the designated holder set from the current
// roster: demote the dead (the departed took their designation with them),
// then refill to target with the lowest-ID live non-holders. It returns the
// dead holders it demoted and the members it recruited, ascending by ID.
func (d *Daemon) refreshReplicaSet() (demoted, recruited []radio.NodeID) {
	missing := d.cfg.ReplicationTarget - 1
	for _, m := range d.roster {
		switch {
		case m.dead:
			if m.holder {
				demoted = append(demoted, m.id)
			}
			m.holder, m.acked = false, 0 // the lease goes with the designation
		case m.holder:
			missing--
		}
	}
	for _, m := range d.peers() { // ascending by ID
		if !m.holder && (missing > 0 || d.fullReplication()) {
			m.holder = true
			missing--
			recruited = append(recruited, m.id)
		}
	}
	return demoted, recruited
}

// replicaInfo builds the owner's REPLICA_DIST payload: always the
// membership view, plus a table clone for designated holders when the owner
// has a table to clone.
func (d *Daemon) replicaInfo(withPool bool) msg.HolderInfo {
	info := msg.HolderInfo{
		Owner:   d.cfg.ID,
		OwnerIP: d.selfIP,
		Holders: d.electorate(),
	}
	if withPool && d.table != nil {
		info.Pool = addrspace.NewPool(d.table.Clone())
	}
	return info
}

// sendReplicaTo pushes the full replica to one designated holder.
func (d *Daemon) sendReplicaTo(id radio.NodeID) {
	d.trace(obs.Event{Kind: obs.EvReplicaSync, Peer: id, Addr: d.selfIP})
	d.sendTo(id, msg.TReplicaDist, metrics.CatSync, msg.ReplicaDist{Info: d.replicaInfo(true)})
}

// broadcastReplica distributes the owner's authoritative view to every
// live member: the full table to designated holders, the membership view
// to the rest.
func (d *Daemon) broadcastReplica() {
	d.refreshReplicaSet()
	memb := msg.ReplicaDist{Info: d.replicaInfo(false)}
	for _, m := range d.peers() {
		if m.holder {
			d.sendReplicaTo(m.id)
		} else {
			d.sendTo(m.id, msg.TReplicaDist, metrics.CatSync, memb)
		}
	}
}

// onReplicaAck records one designated holder's replica confirmation lease.
// An ack that arrives after its sender was demoted grants nothing: a lease
// belongs to the designation.
func (d *Daemon) onReplicaAck(src radio.NodeID) {
	if m := d.member(src); d.isOwner() && m != nil && m.holder {
		m.acked = d.now()
		d.coll.Inc("daemon.replica_acks")
	}
}

// healthPeers snapshots the owner's electorate view for the monitor.
func (d *Daemon) healthPeers() []health.PeerState {
	peers := make([]health.PeerState, 0, len(d.roster))
	for _, m := range d.roster {
		if m.id != d.cfg.ID {
			peers = append(peers, health.PeerState{ID: m.id, Dead: m.dead, Holder: m.holder, AckedAt: instant(m.acked)})
		}
	}
	return peers
}

// healthTick runs one replica-health check, then repairs the replica set:
// refreshReplicaSet demotes dead holders and recruits their replacements,
// each recruit gets the table, and aging leases are re-synced. The monitor
// emits health_check / replica_underreplicated / replica_restored; the
// quorum adjustments and syncs trace through the existing kinds.
func (d *Daemon) healthTick() {
	if !d.isOwner() || !d.joined || d.table == nil {
		return // a tableless owner has no replica to keep
	}
	d.coll.Inc("daemon.health_checks")
	c := d.monitor.Evaluate(instant(d.now()), d.cfg.ID, d.healthPeers())
	demoted, recruited := d.refreshReplicaSet()
	for _, id := range demoted {
		d.trace(obs.Event{Kind: obs.EvQuorumShrink, Peer: id, Detail: "health_demote"})
	}
	for _, id := range recruited {
		d.coll.Inc("daemon.health_recruits")
		d.trace(obs.Event{Kind: obs.EvQuorumRecruit, Peer: id, Detail: "health_recruit"})
		d.sendReplicaTo(id)
	}
	for _, id := range c.Refresh {
		d.sendReplicaTo(id)
	}
	if c.Under {
		d.coll.Inc("daemon.health_under")
	}
}

// --- graceful departure ---------------------------------------------------

// startDepart begins (or joins) the member-side departure exchange.
func (d *Daemon) startDepart(res chan error) {
	if d.departed {
		res <- nil
		return
	}
	if !d.joined {
		res <- ErrNotJoined
		return
	}
	if d.isOwner() {
		res <- ErrOwnerDepart
		return
	}
	d.departWaiters = append(d.departWaiters, res)
	if d.departing {
		return // an exchange is already in flight; share its ack
	}
	d.departing = true
	d.Drain()
	d.coll.Inc("daemon.departs_started")
	d.logf("departing: returning held addresses to owner %d", int(d.ownerID))
	d.sendReturns()
}

// sendReturns emits RETURN_ADDR for every held address, the member's own
// IP last so the owner tears down membership only after the leases are
// home. Re-armed on JoinRetry until DEPART_ACK arrives.
func (d *Daemon) sendReturns() {
	if !d.departing || d.departed {
		return
	}
	leases := slices.DeleteFunc(d.heldBy(d.cfg.ID), func(a addrspace.Addr) bool { return a == d.selfIP })
	for _, addr := range append(leases, d.selfIP) {
		d.sendTo(d.ownerID, msg.TReturnAddr, metrics.CatConfig,
			msg.ReturnAddr{Configurer: d.cfg.ID, ConfigurerIP: d.selfIP, Addr: addr})
	}
	d.after(d.cfg.JoinRetry, d.sendReturns)
}

// onReturnAddr is the owner side of a graceful departure: free the
// returned address under a quorum update, and when the member returns its
// own IP (marked by Addr == ConfigurerIP), retire it from the electorate
// and confirm with DEPART_ACK. Only the holder can return an address, so a
// RETURN_ADDR naming someone else's — from a raw socket or an insider —
// changes nothing.
func (d *Daemon) onReturnAddr(src radio.NodeID, p msg.ReturnAddr) {
	if !d.isOwner() || d.table == nil {
		return // stale owner view at the sender; it retries after failover
	}
	if src == d.cfg.ID {
		return // forged: the owner never returns an address to itself
	}
	held := d.holders[p.Addr] == src
	if held {
		if e, ok := d.table.Get(p.Addr); ok && e.Status == addrspace.Occupied {
			d.coll.Inc("daemon.addrs_returned")
			d.writeFree(p.Addr, e, metrics.CatConfig, 0)
		}
		delete(d.holders, p.Addr)
	}
	if p.Addr != p.ConfigurerIP {
		return
	}
	// Final leg: the member returned its own address. Idempotent — a
	// retried RETURN_ADDR after teardown still earns its DEPART_ACK.
	switch {
	case d.member(src) == nil:
	case held:
		d.trace(obs.Event{Kind: obs.EvNodeDeparted, Peer: src, Addr: p.Addr, Detail: "graceful"})
		d.expel(src)
		delete(d.joinInFlight, src)
		d.coll.Inc("daemon.departs_served")
		d.broadcastReplica()
		d.logf("member %d departed gracefully; electorate %v", int(src), d.electorate())
	default:
		return // a member naming an address that is not its own
	}
	d.sendTo(src, msg.TDepartAck, metrics.CatConfig, msg.DepartAck{})
}

// onDepartAck completes the member-side departure.
func (d *Daemon) onDepartAck() {
	if !d.departing || d.departed {
		return
	}
	d.departed = true
	d.coll.Inc("daemon.departed")
	d.trace(obs.Event{Kind: obs.EvNodeDeparted, Addr: d.selfIP, Detail: "graceful"})
	for _, w := range d.departWaiters {
		w <- nil // buffered; an abandoned Depart caller never blocks the loop
	}
	d.departWaiters = nil
	d.logf("departed gracefully")
}
