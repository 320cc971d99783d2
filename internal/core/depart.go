package core

import (
	"quorumconf/internal/addrspace"
	"quorumconf/internal/cluster"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// Counter names for departure handling.
const (
	// CounterGracefulDepartures counts nodes that returned their address
	// or block before leaving.
	CounterGracefulDepartures = "graceful_departures"
	// CounterAbruptDepartures counts crash-style departures.
	CounterAbruptDepartures = "abrupt_departures"
	// CounterAddrReturned counts addresses routed back to their allocator
	// (or a replica holder) on departure.
	CounterAddrReturned = "addresses_returned"
)

// NodeDeparting implements protocol.Protocol.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	nd, ok := p.nodes[id]
	if !ok || !nd.alive {
		return
	}
	if !graceful {
		p.rt.Coll.Inc(CounterAbruptDepartures)
		p.rt.Trace(obs.Event{Kind: obs.EvNodeDeparted, Node: id, Addr: nd.ip, Detail: "abrupt"})
		p.killNode(nd)
		return
	}
	p.rt.Coll.Inc(CounterGracefulDepartures)
	p.rt.Trace(obs.Event{Kind: obs.EvNodeDeparted, Node: id, Addr: nd.ip, Detail: "graceful"})
	switch {
	case nd.isHead():
		p.departHead(nd)
	case nd.isCommon():
		p.departCommon(nd)
	default:
		p.killNode(nd) // never configured: nothing to return
	}
}

// killNode removes a node from the fabric without any protocol traffic —
// the crash case, and the final step of every departure.
func (p *Protocol) killNode(nd *node) {
	if !nd.alive {
		return
	}
	info := departedInfo{Role: nd.role, IP: nd.ip, HasIP: nd.hasIP}
	if nd.isHead() {
		info.Holders = nd.electorate(nd.id)
	}
	nd.alive = false
	if nd.cfgTimer != nil {
		nd.cfgTimer.Cancel()
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
	p.departed[nd.id] = info
	p.rt.RemoveNode(nd.id)
}

// --- common node graceful departure (§IV-C1) ------------------------------

// departCommon returns the node's address to the nearest cluster head and
// leaves once acknowledged.
func (p *Protocol) departCommon(nd *node) {
	snap := p.snapshot()
	head, _, ok := cluster.Nearest(snap, nd.id, p.isHeadFn)
	if !ok {
		p.killNode(nd) // nobody to return the address to
		return
	}
	if _, sent := p.send(nd.id, head, msg.TReturnAddr, metrics.CatDeparture, msg.ReturnAddr{
		Configurer:   nd.configurer,
		ConfigurerIP: p.ipOf(nd.configurer),
		Addr:         nd.ip,
	}); !sent {
		p.killNode(nd)
		return
	}
	// Leave on DEPART_ACK; give up after configTimeout if it never comes.
	p.rt.Sim.Schedule(configTimeout, func() { p.killNode(nd) })
}

func (p *Protocol) onReturnAddr(nd *node, m netstack.Message, pl msg.ReturnAddr) {
	if !nd.isHead() {
		return
	}
	_, _ = p.send(nd.id, m.Src, msg.TDepartAck, metrics.CatDeparture, msg.DepartAck{})
	delete(nd.administered, m.Src)
	if owner := pl.Configurer; owner == nd.id {
		delete(nd.members, m.Src)
	}
	p.routeVacate(nd, pl.Configurer, pl.Addr)
}

func (p *Protocol) onDepartAck(nd *node) {
	p.killNode(nd)
}

// routeVacate gets a freed address marked vacant at its allocator's
// replicas: locally when this head holds a copy, by unicast to the
// allocator when it is alive, and by a one-round broadcast to adjacent
// heads otherwise (the upon-leave variant always takes the broadcast
// path's semantics).
func (p *Protocol) routeVacate(nd *node, owner radio.NodeID, addr addrspace.Addr) {
	delete(p.ipOwner, addr)
	if cur, ok := nd.localEntry(owner, addr); ok {
		// This head holds a copy: commit the vacate and propagate to the
		// other holders.
		freed := addrspace.Entry{Status: addrspace.Free, Version: cur.Version + 1}
		nd.applyEntry(owner, addr, freed)
		p.rt.Coll.Inc(CounterAddrReturned)
		for _, h := range nd.electorate(owner) {
			if h == nd.id {
				continue
			}
			_, _ = p.send(nd.id, h, msg.TQuorumUpd, metrics.CatDeparture, msg.QuorumUpd{
				Owner: owner,
				Addr:  addr,
				Entry: freed,
			})
		}
		return
	}
	// Forward to the allocator — but never to ourselves: owner == nd.id
	// with no local entry means the address left this head's pool (block
	// split or return), so only the broadcast below can find the holder.
	if owner != nd.id && p.isHeadFn(owner) {
		if _, sent := p.send(nd.id, owner, msg.TReturnFwd, metrics.CatDeparture, msg.ReturnFwd{
			Owner: owner,
			Addr:  addr,
		}); sent {
			return
		}
	}
	// Allocator gone or unreachable: broadcast the vacate to adjacent
	// heads; whichever holds a replica commits it.
	for _, h := range sortedIDs(nd.qdset) {
		_, _ = p.send(nd.id, h, msg.TVacate, metrics.CatDeparture, msg.Vacate{
			Owner: owner,
			Addr:  addr,
			TTL:   1,
		})
	}
}

func (p *Protocol) onReturnFwd(nd *node, pl msg.ReturnFwd) {
	if !nd.isHead() {
		return
	}
	p.routeVacate(nd, pl.Owner, pl.Addr)
}

func (p *Protocol) onVacate(nd *node, pl msg.Vacate) {
	if !nd.isHead() {
		return
	}
	if cur, ok := nd.localEntry(pl.Owner, pl.Addr); ok {
		freed := addrspace.Entry{Status: addrspace.Free, Version: cur.Version + 1}
		nd.applyEntry(pl.Owner, pl.Addr, freed)
		p.rt.Coll.Inc(CounterAddrReturned)
		return
	}
	if pl.TTL <= 0 {
		return
	}
	for _, h := range sortedIDs(nd.qdset) {
		_, _ = p.send(nd.id, h, msg.TVacate, metrics.CatDeparture, msg.Vacate{
			Owner: pl.Owner,
			Addr:  pl.Addr,
			TTL:   pl.TTL - 1,
		})
	}
}

// --- cluster head graceful departure (§IV-C2) -----------------------------

// departHead returns the head's IP block to its configurer when that head
// is alive within three hops, otherwise to the QDSet member with the
// smallest IP block; members are handed over to the recipient.
func (p *Protocol) departHead(nd *node) {
	snap := p.snapshot()
	target := radio.NodeID(0)
	found := false
	if nd.hasConfigurer && p.isHeadFn(nd.configurer) {
		if d, ok := snap.HopCount(nd.id, nd.configurer); ok && d <= 3 {
			target, found = nd.configurer, true
		}
	}
	if !found {
		// Smallest IP block among QDSet members.
		var bestSize uint32
		for _, h := range sortedIDs(nd.qdset) {
			hn := p.nodes[h]
			if hn == nil || !hn.isHead() || hn.pools == nil || !snap.Reachable(nd.id, h) {
				continue
			}
			if size := hn.pools.Size(); !found || size < bestSize {
				target, bestSize, found = h, size, true
			}
		}
	}
	if !found {
		p.killNode(nd) // isolated: space recovered later by reclamation
		return
	}

	// Return own IP to the pool before handing it over.
	if nd.pools != nil && nd.hasIP {
		if _, err := nd.pools.Mark(nd.ip, addrspace.Free); err == nil {
			delete(p.ipOwner, nd.ip)
		}
	}
	members := make([]msg.MemberRecord, 0, len(nd.members))
	for _, id := range sortedIDs(nd.members) {
		members = append(members, msg.MemberRecord{Node: id, Addr: nd.members[id]})
	}
	_, sent := p.send(nd.id, target, msg.TChReturn, metrics.CatDeparture, msg.ChReturn{
		Pool:    nd.pools,
		Members: members,
	})
	if !sent {
		p.killNode(nd)
		return
	}
	p.rt.Trace(obs.Event{Kind: obs.EvHeadResigned, Node: nd.id, Peer: target})
	// Resign from every QDSet (§IV-C2).
	for _, h := range sortedIDs(nd.qdset) {
		if h != target {
			_, _ = p.send(nd.id, h, msg.TChResign, metrics.CatDeparture, msg.ChResign{})
		}
	}
	p.rt.Sim.Schedule(configTimeout, func() { p.killNode(nd) })
}

func (p *Protocol) onChReturn(nd *node, m netstack.Message, pl msg.ChReturn) {
	if !nd.isHead() {
		return
	}
	_, _ = p.send(nd.id, m.Src, msg.TChReturnAck, metrics.CatDeparture, msg.ChReturnAck{})
	if pl.Pool != nil {
		for _, t := range pl.Pool.Tables() {
			nd.pools.Add(t)
		}
	}
	p.rt.Coll.Inc(CounterAddrReturned)
	// The departing head stops being an owner. Its departure is explained,
	// so an emptied QDSet here is attrition, not a partition.
	delete(nd.replicas, m.Src)
	delete(nd.replicaHolders, m.Src)
	delete(nd.qdset, m.Src)
	p.dropCachedVoter(nd, m.Src)
	if len(nd.qdset) == 0 {
		nd.everHadPeers = false
	}
	// Adopt the orphaned members and tell them their new allocator
	// (§IV-C2: "inform each node configured by U the change of their
	// allocator").
	for _, rec := range pl.Members {
		if !p.Alive(rec.Node) {
			continue
		}
		nd.members[rec.Node] = rec.Addr
		_, _ = p.send(nd.id, rec.Node, msg.TReassign, metrics.CatDeparture, msg.Reassign{
			NewAllocator:   nd.id,
			NewAllocatorIP: nd.ip,
		})
	}
	// The pool grew: refresh replicas at this head's own holders.
	for _, h := range sortedIDs(nd.qdset) {
		_, _ = p.send(nd.id, h, msg.TPoolUpd, metrics.CatDeparture, msg.PoolUpd{
			Owner: nd.id,
			Pool:  nd.pools.Clone(),
		})
	}
}

func (p *Protocol) onChReturnAck(nd *node) {
	p.killNode(nd)
}

func (p *Protocol) onChResign(nd *node, m netstack.Message) {
	if !nd.isHead() {
		return
	}
	delete(nd.qdset, m.Src)
	p.dropCachedVoter(nd, m.Src)
	delete(nd.replicas, m.Src)
	delete(nd.replicaHolders, m.Src)
	delete(nd.ownerIPs, m.Src)
	if len(nd.qdset) == 0 {
		nd.everHadPeers = false // explained departure, not a partition
	}
	p.maintainReplicationLevel(nd)
}

func (p *Protocol) onReassign(nd *node, pl msg.Reassign) {
	if !nd.isCommon() {
		return
	}
	nd.configurer = pl.NewAllocator
	nd.hasConfigurer = true
	nd.hasAdmin = false
}

func (p *Protocol) onPoolUpd(nd *node, pl msg.PoolUpd) {
	if !nd.isHead() || pl.Pool == nil {
		return
	}
	nd.replicas[pl.Owner] = pl.Pool
	nd.qdset[pl.Owner] = true
	nd.everHadPeers = true
}
