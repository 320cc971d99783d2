package daemon

// Replica-set management, the embedded replica-health monitor, and the
// on-demand graceful departure exchange. Everything here runs on the
// event-loop goroutine (the public Depart posts into it).
//
// The owner designates a replica set — the deployment QDSet. With
// Config.ReplicationTarget 0 every member is designated (full replication,
// the pre-health behavior); with a target of R the owner keeps the R-1
// lowest-ID live members designated, so the owner-failover successor (the
// lowest-ID survivor) holds a replica. Designated members receive
// REPLICA_DIST with the table and confirm with REPLICA_ACK; confirmations
// are leases the health monitor re-validates every HealthInterval,
// re-syncing at half-life and recruiting replacements the moment a holder
// dies — instead of waiting for the T_d reclamation path to redistribute.

import (
	"sort"
	"time"

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
// then refill to target with the lowest-ID live non-holders.
func (d *Daemon) refreshReplicaSet() {
	missing := d.cfg.ReplicationTarget - 1
	for _, m := range d.roster {
		if m.dead {
			m.demote()
		} else if m.holder {
			missing--
		}
	}
	for _, m := range d.peers() { // ascending by ID
		if !m.holder && (missing > 0 || d.fullReplication()) {
			m.holder = true
			missing--
		}
	}
}

// demote retires m from the replica set; its lease goes with the
// designation.
func (m *member) demote() { m.holder, m.acked = false, time.Time{} }

// replicaInfo builds the owner's REPLICA_DIST payload: always the
// membership view, plus a table clone for designated holders.
func (d *Daemon) replicaInfo(withPool bool) msg.HolderInfo {
	info := msg.HolderInfo{
		Owner:   d.cfg.ID,
		OwnerIP: d.selfIP,
		Holders: d.electorate(),
	}
	if withPool {
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

// onReplicaAck records one member's replica confirmation lease.
func (d *Daemon) onReplicaAck(src radio.NodeID) {
	if m := d.member(src); d.owner && m != nil {
		m.acked = time.Now()
		d.coll.Inc("daemon.replica_acks")
	}
}

// healthPeers snapshots the owner's electorate view for the monitor.
func (d *Daemon) healthPeers() []health.PeerState {
	peers := make([]health.PeerState, 0, len(d.roster))
	for _, m := range d.roster {
		if m.id != d.cfg.ID {
			peers = append(peers, health.PeerState{ID: m.id, Dead: m.dead, Holder: m.holder, AckedAt: m.acked})
		}
	}
	return peers
}

// healthTick runs one replica-health check and applies its repairs:
// demote dead holders, recruit replacements, re-sync aging leases. The
// monitor emits health_check / replica_underreplicated / replica_restored;
// the quorum adjustments and syncs trace through the existing kinds.
func (d *Daemon) healthTick() {
	if !d.owner || !d.joined {
		return
	}
	d.coll.Inc("daemon.health_checks")
	c := d.monitor.Evaluate(time.Now(), d.cfg.ID, d.healthPeers())
	// The check names members of the snapshot it was handed, so every ID
	// below has a record.
	for _, id := range c.Demote {
		d.member(id).demote()
		d.trace(obs.Event{Kind: obs.EvQuorumShrink, Peer: id, Detail: "health_demote"})
	}
	for _, id := range c.Recruit {
		d.member(id).holder = true
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
	if d.owner {
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
	var leases []addrspace.Addr
	for addr, h := range d.holders {
		if h == d.cfg.ID && addr != d.selfIP {
			leases = append(leases, addr)
		}
	}
	sort.Slice(leases, func(i, j int) bool { return leases[i] < leases[j] })
	for _, addr := range leases {
		d.sendTo(d.ownerID, msg.TReturnAddr, metrics.CatConfig,
			msg.ReturnAddr{Configurer: d.cfg.ID, ConfigurerIP: d.selfIP, Addr: addr})
	}
	d.sendTo(d.ownerID, msg.TReturnAddr, metrics.CatConfig,
		msg.ReturnAddr{Configurer: d.cfg.ID, ConfigurerIP: d.selfIP, Addr: d.selfIP})
	d.after(d.cfg.JoinRetry, d.sendReturns)
}

// onReturnAddr is the owner side of a graceful departure: free the
// returned address under a quorum update, and when the member returns its
// own IP (marked by Addr == ConfigurerIP), retire it from the electorate
// and confirm with DEPART_ACK. Only the holder can return an address, so a
// RETURN_ADDR naming someone else's — from a raw socket or an insider —
// changes nothing.
func (d *Daemon) onReturnAddr(src radio.NodeID, p msg.ReturnAddr) {
	if !d.owner || d.table == nil {
		return // stale owner view at the sender; it retries after failover
	}
	if src == d.cfg.ID {
		return // forged: the owner never returns an address to itself
	}
	held := d.holders[p.Addr] == src
	if held {
		if e, ok := d.table.Get(p.Addr); ok && e.Status == addrspace.Occupied {
			ne := addrspace.Entry{Status: addrspace.Free, Version: e.Version + 1}
			_ = d.table.Set(p.Addr, ne)
			d.coll.Inc("daemon.addrs_returned")
			for _, m := range d.peers() {
				d.sendTo(m.id, msg.TQuorumUpd, metrics.CatConfig, msg.QuorumUpd{Owner: d.cfg.ID, Addr: p.Addr, Entry: ne})
			}
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
