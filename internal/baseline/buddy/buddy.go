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
	"fmt"
	"sort"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/netstack"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// Sample and counter names.
const (
	SampleConfigLatency = "config_latency_hops"
	CounterConfigured   = "configured"
	// CounterBlockTransfers counts block requests served by a remote node
	// (the local neighbor's block was unsplittable).
	CounterBlockTransfers = "block_transfers"
	// CounterBuddyReclaims counts blocks recovered by a buddy after an
	// abrupt departure.
	CounterBuddyReclaims = "buddy_reclaims"
)

// The baseline's timers.
const (
	syncPeriod    = 10 * time.Second // every node floods its allocation table once per period
	retryInterval = 3 * time.Second  // wait between configuration attempts
	buddyTimeout  = 5 * time.Second  // an abrupt departure's buddy reclaims the block after this
)

// Params configures the baseline.
type Params struct {
	// Space is the address pool, owned entirely by the first node.
	Space addrspace.Block
}

func (p *Params) setDefaults() {
	if p.Space == (addrspace.Block{}) {
		p.Space = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 1023}
	}
}

type nodeState struct {
	id         radio.NodeID
	alive      bool
	configured bool
	ip         addrspace.Addr
	block      addrspace.Block // the disjoint block this node manages
	buddy      radio.NodeID    // the node that held the other half at split time
	hasBuddy   bool
}

// Protocol implements protocol.Protocol with the buddy cost model.
type Protocol struct {
	rt *protocol.Runtime
	p  Params

	nodes   map[radio.NodeID]*nodeState
	running bool
	ticker  func()
}

// New creates the baseline over a runtime.
func New(rt *protocol.Runtime, params Params) (*Protocol, error) {
	if rt == nil {
		return nil, fmt.Errorf("buddy: nil runtime")
	}
	params.setDefaults()
	if params.Space.Size() < 2 {
		return nil, fmt.Errorf("buddy: address space %v too small", params.Space)
	}
	return &Protocol{rt: rt, p: params, nodes: make(map[radio.NodeID]*nodeState)}, nil
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "buddy" }

// IsConfigured implements protocol.Protocol.
func (p *Protocol) IsConfigured(id radio.NodeID) bool {
	ns, ok := p.nodes[id]
	return ok && ns.alive && ns.configured
}

// IP returns a node's address.
func (p *Protocol) IP(id radio.NodeID) (addrspace.Addr, bool) {
	if ns, ok := p.nodes[id]; ok && ns.alive && ns.configured {
		return ns.ip, true
	}
	return 0, false
}

// ConfiguredCount returns the number of alive configured nodes.
func (p *Protocol) ConfiguredCount() int {
	n := 0
	for _, ns := range p.nodes {
		if ns.alive && ns.configured {
			n++
		}
	}
	return n
}

// NodeArrived implements protocol.Protocol.
func (p *Protocol) NodeArrived(id radio.NodeID) {
	if !p.running {
		p.running = true
		p.scheduleSync()
	}
	ns := &nodeState{id: id, alive: true}
	p.nodes[id] = ns
	p.rt.Net.InvalidateSnapshot()
	_ = p.rt.Net.Register(id, func(netstack.Message) {})
	p.rt.Sim.Schedule(time.Second, func() { p.tryConfigure(ns) })
}

// scheduleSync runs the periodic global table synchronization: each
// configured node floods its allocation table once per period. This O(n^2)
// traffic is the protocol's defining overhead.
func (p *Protocol) scheduleSync() {
	p.rt.Sim.Schedule(syncPeriod, func() {
		snap := p.rt.Net.Snapshot()
		for _, id := range p.sortedConfigured() {
			comp := len(snap.Component(id))
			p.rt.Coll.AddTransmissions(metrics.CatSync, comp)
		}
		p.scheduleSync()
	})
}

func (p *Protocol) sortedConfigured() []radio.NodeID {
	var out []radio.NodeID
	for id, ns := range p.nodes {
		if ns.alive && ns.configured {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tryConfigure runs one configuration attempt: split the block of a
// configured neighbor, falling back to the largest-block node from the
// replicated table when the neighbor cannot split.
func (p *Protocol) tryConfigure(ns *nodeState) {
	if !ns.alive || ns.configured {
		return
	}
	snap := p.rt.Net.Snapshot()

	var helper *nodeState
	helperDist := 0
	for _, nb := range snap.Neighbors(ns.id) {
		if hn := p.nodes[nb]; hn != nil && hn.alive && hn.configured {
			helper, helperDist = hn, 1
			break
		}
	}
	if helper == nil {
		if p.anyConfiguredInComponent(snap, ns.id) {
			p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
			return
		}
		// First node of the component: owns the whole space.
		ns.block = p.p.Space
		ns.ip = ns.block.Lo
		ns.configured = true
		p.rt.Coll.Observe(SampleConfigLatency, 1)
		p.rt.Coll.Inc(CounterConfigured)
		return
	}

	// The neighbor splits its own block; if it cannot, it consults its
	// table for the largest block holder and relays the request.
	granter, extraHops := helper, 0
	if granter.block.Size() < 2 {
		granter = nil
		var bestSize uint32
		for _, id := range p.sortedConfigured() {
			other := p.nodes[id]
			if other.block.Size() < 2 || !snap.Reachable(helper.id, id) {
				continue
			}
			if granter == nil || other.block.Size() > bestSize {
				granter, bestSize = other, other.block.Size()
			}
		}
		if granter == nil {
			p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
			return
		}
		d, _ := snap.HopCount(helper.id, granter.id)
		extraHops = 2 * d
		p.rt.Coll.Inc(CounterBlockTransfers)
	}

	lower, upper, err := granter.block.SplitHalf()
	if err != nil {
		p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
		return
	}
	granter.block = lower
	granter.buddy, granter.hasBuddy = ns.id, true
	latency := 2*helperDist + extraHops
	p.rt.Coll.AddTraffic(metrics.CatConfig, latency)
	delay := time.Duration(latency) * p.rt.Net.PerHop()
	p.rt.Sim.Schedule(delay, func() {
		if !ns.alive || ns.configured {
			return
		}
		ns.block = upper
		ns.ip = upper.Lo
		ns.buddy, ns.hasBuddy = granter.id, true
		ns.configured = true
		p.rt.Coll.Observe(SampleConfigLatency, float64(latency))
		p.rt.Coll.Inc(CounterConfigured)
	})
}

func (p *Protocol) anyConfiguredInComponent(snap *radio.Snapshot, id radio.NodeID) bool {
	for _, other := range snap.Component(id) {
		if other != id {
			if ns := p.nodes[other]; ns != nil && ns.alive && ns.configured {
				return true
			}
		}
	}
	return false
}

// NodeDeparting implements protocol.Protocol. A graceful departure hands
// the block back to the buddy and floods the departure announcement so
// every replicated table is updated. An abrupt departure is noticed by the
// buddy after a timeout; the buddy merges the block and announces it.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	ns, ok := p.nodes[id]
	if !ok || !ns.alive {
		return
	}
	snap := p.rt.Net.Snapshot()
	if ns.configured {
		if graceful {
			if buddy := p.liveBuddy(ns); buddy != nil {
				if d, ok := snap.HopCount(id, buddy.id); ok {
					p.rt.Coll.AddTraffic(metrics.CatDeparture, d)
				}
				p.absorb(buddy, ns.block)
			}
			// Departure announcement keeps all replicated tables aligned.
			p.rt.Coll.AddTransmissions(metrics.CatDeparture, len(snap.Component(id)))
		} else {
			block := ns.block
			buddyID := ns.buddy
			hasBuddy := ns.hasBuddy
			p.rt.Sim.Schedule(buddyTimeout, func() {
				if !hasBuddy {
					return
				}
				buddy, ok := p.nodes[buddyID]
				if !ok || !buddy.alive || !buddy.configured {
					return
				}
				// Probe that went unanswered, then the reclaim announcement.
				s := p.rt.Net.Snapshot()
				p.rt.Coll.AddTransmissions(metrics.CatReclamation, 1)
				p.rt.Coll.AddTransmissions(metrics.CatReclamation, len(s.Component(buddy.id)))
				p.absorb(buddy, block)
				p.rt.Coll.Inc(CounterBuddyReclaims)
			})
		}
	}
	ns.alive = false
	p.rt.RemoveNode(id)
}

// liveBuddy returns the node's buddy if it is still alive and configured.
func (p *Protocol) liveBuddy(ns *nodeState) *nodeState {
	if !ns.hasBuddy {
		return nil
	}
	buddy, ok := p.nodes[ns.buddy]
	if !ok || !buddy.alive || !buddy.configured {
		return nil
	}
	return buddy
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
