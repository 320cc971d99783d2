package core

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/cluster"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/quorum"
	"quorumconf/internal/radio"
)

// Counter names for reclamation.
const (
	// CounterReclamations counts reclamation processes initiated.
	CounterReclamations = "reclamations"
	// CounterAddrReclaimed counts leaked addresses recovered.
	CounterAddrReclaimed = "addresses_reclaimed"
)

// initiateReclamation starts the §IV-D process for target's address space:
// an ADDR_REC broadcast asks the target's surviving members to report
// their existence to their closest head; after reclaimSettle every replica
// holder frees the addresses nobody claimed. A head reclaims its own space
// (target == initiator) when it has run out of addresses in both IPSpace
// and QuorumSpace (§IV-D).
func (p *Protocol) initiateReclamation(initiator *node, target radio.NodeID, targetIP addrspace.Addr) {
	if !initiator.isHead() || initiator.reclaims.Running(target) {
		return
	}
	if p.byzSuppressReclaim(initiator, target) {
		return
	}
	if target != initiator.id {
		if last, done := initiator.recentReclaims[target]; done && p.rt.Sim.Now()-last < reclaimCooldown {
			return // somebody already reclaimed this target recently
		}
	}
	p.rt.Coll.Inc(CounterReclamations)
	span := p.mintSpan(initiator.id)
	p.rt.Trace(obs.Event{Kind: obs.EvReclaimStart, Node: initiator.id, Peer: target, Addr: targetIP, Span: span})
	p.rt.Net.Flood(initiator.id, netstack.Message{
		Type:     msg.TAddrRec,
		Category: metrics.CatReclamation,
		Span:     span,
		Payload:  msg.AddrRec{Target: target, TargetIP: targetIP},
	})
	// The initiator processes the broadcast locally too.
	p.beginReclaimWindow(initiator, target, span)
}

// beginReclaimWindow opens the report-collection window at one replica
// holder of the target's space. The settle timer holds the run it settles,
// so a timer that outlives the run (the node reset or re-became head)
// settles nothing.
func (p *Protocol) beginReclaimWindow(nd *node, target radio.NodeID, span uint64) {
	if !nd.isHead() || nd.space(target) == nil {
		return // not a holder: nothing to settle
	}
	if run := nd.reclaims.Open(target, span, p.rt.Sim.Now()); run != nil {
		p.rt.Sim.Schedule(reclaimSettle, func() { p.settleReclaim(nd, target, run) })
	}
}

func (p *Protocol) onAddrRec(nd *node, span uint64, pl msg.AddrRec) {
	if !nd.alive {
		return
	}
	if p.byzSabotageReclaim(nd, pl) {
		return
	}
	if nd.isHead() {
		p.beginReclaimWindow(nd, pl.Target, span)
		return
	}
	// Common node configured by the target: report existence to the
	// closest head (§IV-D).
	if !nd.isCommon() || nd.configurer != pl.Target {
		return
	}
	snap := p.snapshot()
	head, _, ok := cluster.Nearest(snap, nd.id, p.isHeadFn)
	if !ok {
		return
	}
	_, _ = p.sendSpan(nd.id, head, msg.TRecRep, metrics.CatReclamation, span, msg.RecRep{
		Target: pl.Target,
		Addr:   nd.ip,
	})
}

// applyRecReport refreshes the reporter's address at a replica holder; a
// head without the replica forwards to its adjacent heads until the
// information lands (§IV-D), bounded by ttl rounds.
func (p *Protocol) applyRecReport(nd *node, span uint64, target radio.NodeID, addr addrspace.Addr, ttl int) {
	if !nd.isHead() {
		return
	}
	if cur, ok := nd.localEntry(target, addr); ok {
		refreshed := addrspace.Entry{Status: addrspace.Occupied, Version: cur.Version + 1}
		nd.applyEntry(target, addr, refreshed)
		if run, open := nd.reclaims.Defend(target, addr); open {
			p.rt.Trace(obs.Event{Kind: obs.EvReclaimDefend, Node: nd.id, Peer: target, Addr: addr, Span: run.Span})
		}
		return
	}
	if ttl <= 0 {
		return
	}
	for _, h := range sortedIDs(nd.qdset) {
		_, _ = p.sendSpan(nd.id, h, msg.TRecFwd, metrics.CatReclamation, span, msg.RecFwd{
			Target: target,
			Addr:   addr,
			TTL:    ttl - 1,
		})
	}
}

// settleReclaim frees every address of the target's space that no
// surviving member claimed during the window. The target's own IP is
// always freed (it departed). The space stays replicated at the holders,
// usable through QuorumSpace borrowing.
func (p *Protocol) settleReclaim(nd *node, target radio.NodeID, run *quorum.Reclaim) {
	if !nd.alive || !nd.reclaims.Close(target, run) {
		return
	}
	if nd.recentReclaims == nil {
		nd.recentReclaims = make(map[radio.NodeID]time.Duration)
	}
	nd.recentReclaims[target] = p.rt.Sim.Now()
	if target != nd.id && p.Alive(target) {
		return // target resurfaced (mobility): do not free behind its back
	}
	pool := nd.space(target)
	if pool == nil {
		return
	}
	for _, addr := range run.Undefended(pool.Occupied()) {
		if target == nd.id && addr == nd.ip {
			continue // own address of a live self-reclaiming head
		}
		if holder, owned := p.ipOwner[addr]; owned && p.Alive(holder) {
			// The routing map knows a live owner (e.g. the member is
			// reachable in another partition): leave it alone.
			continue
		}
		cur, _ := pool.Get(addr)
		nd.applyEntry(target, addr, addrspace.Entry{Status: addrspace.Free, Version: cur.Version + 1})
		delete(p.ipOwner, addr)
		p.rt.Coll.Inc(CounterAddrReclaimed)
		p.rt.Trace(obs.Event{Kind: obs.EvReclaimFree, Node: nd.id, Peer: target, Addr: addr, Span: run.Span})
	}
}
