// Package buddy reimplements the proactive IP assignment protocol of
// Mohsin & Prakash (MILCOM 2002), the disjoint-block baseline of the
// paper's Figures 8 and 9.
//
// Every node owns a binary-buddy address block and can configure a
// newcomer on its own by splitting that block in half — configuration is a
// one-hop exchange and very cheap. What the scheme pays for instead is
// state maintenance: every node keeps the IP allocation table of the whole
// network and synchronizes it by periodic network-wide flooding, each node
// tracks its buddy to detect leaks, and departures are announced globally
// so all tables stay aligned. Those are exactly the costs the paper's
// overhead figures hold against it.
package buddy

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline"
	"quorumconf/internal/metrics"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// Counter names.
const (
	// CounterBlockTransfers counts block requests served by a remote node
	// (the local neighbor's block was unsplittable).
	CounterBlockTransfers = "block_transfers"
	// CounterBuddyReclaims counts blocks recovered by a buddy after an
	// abrupt departure.
	CounterBuddyReclaims = "buddy_reclaims"
)

// The baseline's timers.
const (
	syncPeriod   = 10 * time.Second // every node floods its allocation table once per period
	buddyTimeout = 5 * time.Second  // an abrupt departure's buddy reclaims the block after this
)

type nodeState struct {
	baseline.Node
	block    addrspace.Block // the disjoint block this node manages
	buddy    radio.NodeID    // the node that held the other half at split time
	hasBuddy bool
}

// Protocol implements protocol.Protocol with the buddy cost model.
type Protocol struct {
	baseline.Roster[*nodeState]

	running bool
}

// New creates the baseline over a runtime.
func New(rt *protocol.Runtime, params baseline.Params) (*Protocol, error) {
	r, err := baseline.NewRoster[*nodeState]("buddy", rt, params)
	if err != nil {
		return nil, err
	}
	return &Protocol{Roster: r}, nil
}

// NodeArrived implements protocol.Protocol.
func (p *Protocol) NodeArrived(id radio.NodeID) {
	if !p.running {
		p.running = true
		p.scheduleSync()
	}
	p.Arrive(&nodeState{Node: baseline.Node{ID: id}}, p.tryConfigure)
}

// scheduleSync runs the periodic global table synchronization: each
// configured node floods its allocation table once per period. This O(n^2)
// traffic is the protocol's defining overhead.
func (p *Protocol) scheduleSync() {
	p.RT.Sim.Schedule(syncPeriod, func() {
		snap := p.RT.Net.Snapshot()
		for _, id := range p.SortedConfigured() {
			comp := len(snap.Component(id))
			p.RT.Coll.AddTransmissions(metrics.CatSync, comp)
		}
		p.scheduleSync()
	})
}

// tryConfigure runs one configuration attempt: split the block of a
// configured neighbor, falling back to the largest-block node from the
// replicated table when the neighbor cannot split.
func (p *Protocol) tryConfigure(ns *nodeState) {
	if !ns.Alive || ns.Configured {
		return
	}
	snap := p.RT.Net.Snapshot()

	var helper *nodeState
	helperDist := 0
	for _, nb := range snap.Neighbors(ns.ID) {
		if hn, ok := p.Configured(nb); ok {
			helper, helperDist = hn, 1
			break
		}
	}
	if helper == nil {
		if p.AnyConfiguredInComponent(snap, ns.ID) {
			p.Retry(ns, p.tryConfigure)
			return
		}
		// First node of the component: owns the whole space.
		ns.block = p.Space
		p.Complete(ns, ns.block.Lo, 1)
		return
	}

	// The neighbor splits its own block; if it cannot, it consults its
	// table for the largest block holder and relays the request.
	granter, extraHops := helper, 0
	if granter.block.Size() < 2 {
		granter = nil
		var bestSize uint32
		for _, id := range p.SortedConfigured() {
			other := p.Nodes[id]
			if other.block.Size() < 2 || !snap.Reachable(helper.ID, id) {
				continue
			}
			if granter == nil || other.block.Size() > bestSize {
				granter, bestSize = other, other.block.Size()
			}
		}
		if granter == nil {
			p.Retry(ns, p.tryConfigure)
			return
		}
		d, _ := snap.HopCount(helper.ID, granter.ID)
		extraHops = 2 * d
		p.RT.Coll.Inc(CounterBlockTransfers)
	}

	lower, upper, err := granter.block.SplitHalf()
	if err != nil {
		p.Retry(ns, p.tryConfigure)
		return
	}
	prevBuddy, prevHasBuddy := granter.buddy, granter.hasBuddy
	granter.block = lower
	granter.buddy, granter.hasBuddy = ns.ID, true
	latency := 2*helperDist + extraHops
	p.RT.Coll.AddTraffic(metrics.CatConfig, latency)
	p.Grant(ns, latency,
		func() (addrspace.Addr, bool) {
			ns.block = upper
			ns.buddy, ns.hasBuddy = granter.ID, true
			return upper.Lo, true
		},
		func() {
			// The half goes back and the granter's buddy is again the
			// one it had before the split.
			p.absorb(granter, upper)
			if granter.buddy == ns.ID {
				granter.buddy, granter.hasBuddy = prevBuddy, prevHasBuddy
			}
		})
}

// NodeDeparting implements protocol.Protocol. A graceful departure hands
// the block back to the buddy and floods the departure announcement so
// every replicated table is updated. An abrupt departure is noticed by the
// buddy after a timeout; the buddy merges the block and announces it.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	ns, ok := p.Live(id)
	if !ok {
		return
	}
	snap := p.RT.Net.Snapshot()
	if ns.Configured {
		if graceful {
			if buddy, ok := p.liveBuddy(ns); ok {
				if d, ok := snap.HopCount(id, buddy.ID); ok {
					p.RT.Coll.AddTraffic(metrics.CatDeparture, d)
				}
				p.absorb(buddy, ns.block)
			}
			// Departure announcement keeps all replicated tables aligned.
			p.RT.Coll.AddTransmissions(metrics.CatDeparture, len(snap.Component(id)))
		} else {
			block, buddyID, hasBuddy := ns.block, ns.buddy, ns.hasBuddy
			p.RT.Sim.Schedule(buddyTimeout, func() {
				buddy, ok := p.Configured(buddyID)
				if !hasBuddy || !ok {
					return
				}
				// Probe that went unanswered, then the reclaim announcement.
				s := p.RT.Net.Snapshot()
				p.RT.Coll.AddTransmissions(metrics.CatReclamation, 1)
				p.RT.Coll.AddTransmissions(metrics.CatReclamation, len(s.Component(buddy.ID)))
				p.absorb(buddy, block)
				p.RT.Coll.Inc(CounterBuddyReclaims)
			})
		}
	}
	p.Depart(ns)
}

// liveBuddy returns the node's buddy if it is still alive and configured.
func (p *Protocol) liveBuddy(ns *nodeState) (*nodeState, bool) {
	if !ns.hasBuddy {
		return nil, false
	}
	return p.Configured(ns.buddy)
}

// absorb merges a returned block into the receiver when adjacent;
// otherwise the receiver simply manages it as extra space (modelled by
// extending toward the larger range when possible, else dropped — the
// table flood already announced the release).
func (p *Protocol) absorb(buddy *nodeState, block addrspace.Block) {
	if merged, err := buddy.block.Merge(block); err == nil {
		buddy.block = merged
	}
}
