// Package manetconf reimplements MANETconf (Nesargi & Prakash, INFOCOM
// 2002), the full-replication baseline of the paper's Figures 5 and 6.
//
// Every configured node keeps the allocation table of the entire network.
// A new node asks a one-hop neighbor (the initiator) for an address; the
// initiator picks a candidate, floods an Initiator Request to every node,
// and may assign only after an affirmative reply from each of them, after
// which the assignment is flooded so all tables stay identical. The costs
// that dominate are therefore two network-wide floods plus a reply from
// every node per configuration — and a network-wide flood per graceful
// departure.
//
// As with all baselines in this repository, the protocol is modelled at
// the cost level the paper measures (hop counts and critical-path latency
// over the current connectivity snapshot); see DESIGN.md §2.
package manetconf

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
	// SampleConfigLatency matches the quorum protocol's latency sample so
	// experiment code can compare them directly.
	SampleConfigLatency = "config_latency_hops"
	// CounterConfigured counts completed configurations.
	CounterConfigured = "configured"
	// CounterCleanups counts lazy reclamations of dead nodes' addresses.
	CounterCleanups = "cleanups"
)

// retryInterval is the wait between configuration attempts when the
// requester has no configured neighbor yet.
const retryInterval = 3 * time.Second

// Params configures the baseline.
type Params struct {
	// Space is the address pool.
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
}

// Protocol implements protocol.Protocol with MANETconf's cost model.
type Protocol struct {
	rt *protocol.Runtime
	p  Params

	nodes map[radio.NodeID]*nodeState
	// used is the replicated allocation table. Full replication keeps
	// every copy identical outside windows we do not model, so one shared
	// table stands in for all of them.
	used    map[addrspace.Addr]radio.NodeID
	next    addrspace.Addr
	unclean []radio.NodeID // abruptly departed, not yet noticed
}

// New creates the baseline over a runtime.
func New(rt *protocol.Runtime, params Params) (*Protocol, error) {
	if rt == nil {
		return nil, fmt.Errorf("manetconf: nil runtime")
	}
	params.setDefaults()
	if params.Space.Size() < 2 {
		return nil, fmt.Errorf("manetconf: address space %v too small", params.Space)
	}
	return &Protocol{
		rt:    rt,
		p:     params,
		nodes: make(map[radio.NodeID]*nodeState),
		used:  make(map[addrspace.Addr]radio.NodeID),
		next:  params.Space.Lo,
	}, nil
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "manetconf" }

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
	ns := &nodeState{id: id, alive: true}
	p.nodes[id] = ns
	p.rt.Net.InvalidateSnapshot()
	_ = p.rt.Net.Register(id, func(netstack.Message) {})
	p.rt.Sim.Schedule(time.Second, func() { p.tryConfigure(ns) })
}

// tryConfigure runs one MANETconf configuration attempt.
func (p *Protocol) tryConfigure(ns *nodeState) {
	if !ns.alive || ns.configured {
		return
	}
	snap := p.rt.Net.Snapshot()

	// Pick the initiator: any configured one-hop neighbor.
	var initiator radio.NodeID
	haveInit := false
	for _, nb := range snap.Neighbors(ns.id) {
		if p.IsConfigured(nb) {
			initiator, haveInit = nb, true
			break
		}
	}
	if !haveInit {
		// No configured neighbor: either we are the first node in this
		// component (take an address directly) or we wait for one.
		if p.anyConfiguredInComponent(snap, ns.id) {
			p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
			return
		}
		addr, ok := p.allocate(ns.id)
		if !ok {
			return
		}
		ns.ip, ns.configured = addr, true
		p.rt.Coll.Observe(SampleConfigLatency, 1) // its own broadcast
		p.rt.Coll.Inc(CounterConfigured)
		return
	}

	// Lazy cleanup: dead nodes cannot affirm; the initiator times out on
	// them, removes their bindings and floods the retraction.
	p.cleanupDead(snap, initiator)

	addr, ok := p.allocate(ns.id)
	if !ok {
		p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
		return
	}

	// Cost model of one successful round:
	//   requester -> initiator            1 hop
	//   initiator floods Initiator Request: |component| transmissions
	//   every configured node unicasts an affirmative back
	//   initiator floods the assignment:  |component| transmissions
	//   initiator -> requester            1 hop
	dist := snap.WithinHops(initiator, snap.Len())
	comp := len(dist)
	p.rt.Coll.AddTraffic(metrics.CatConfig, 1) // COM request to initiator
	p.rt.Coll.AddTransmissions(metrics.CatConfig, comp)
	replies, ecc := 0, 0
	for other, d := range dist {
		if other == initiator {
			continue
		}
		if d > ecc {
			ecc = d
		}
		if p.IsConfigured(other) {
			replies += d
		}
	}
	p.rt.Coll.AddTraffic(metrics.CatConfig, replies)
	p.rt.Coll.AddTransmissions(metrics.CatConfig, comp)
	p.rt.Coll.AddTraffic(metrics.CatConfig, 1) // assignment to requester

	// Critical path: request, flood out, farthest reply back, assignment.
	latency := 1 + 2*ecc + 1
	delay := time.Duration(latency) * p.rt.Net.PerHop()
	p.rt.Sim.Schedule(delay, func() {
		if !ns.alive || ns.configured {
			p.release(addr)
			return
		}
		ns.ip, ns.configured = addr, true
		p.rt.Coll.Observe(SampleConfigLatency, float64(latency))
		p.rt.Coll.Inc(CounterConfigured)
	})
}

// anyConfiguredInComponent reports whether some configured node shares the
// component (then the newcomer must go through it rather than self-assign).
func (p *Protocol) anyConfiguredInComponent(snap *radio.Snapshot, id radio.NodeID) bool {
	for _, other := range snap.Component(id) {
		if other != id && p.IsConfigured(other) {
			return true
		}
	}
	return false
}

// cleanupDead charges the retry-plus-retraction cost for abruptly departed
// nodes the initiator notices during a configuration round.
func (p *Protocol) cleanupDead(snap *radio.Snapshot, initiator radio.NodeID) {
	if len(p.unclean) == 0 {
		return
	}
	comp := len(snap.Component(initiator))
	for _, dead := range p.unclean {
		// One extra flooded retry that the dead node fails to answer,
		// then a flooded retraction of its binding.
		p.rt.Coll.AddTransmissions(metrics.CatReclamation, comp)
		p.rt.Coll.AddTransmissions(metrics.CatReclamation, comp)
		if ns, ok := p.nodes[dead]; ok && ns.configured {
			p.release(ns.ip)
			ns.configured = false
		}
		p.rt.Coll.Inc(CounterCleanups)
	}
	p.unclean = nil
}

// allocate picks the lowest unused address.
func (p *Protocol) allocate(id radio.NodeID) (addrspace.Addr, bool) {
	for a := p.p.Space.Lo; ; a++ {
		if _, taken := p.used[a]; !taken {
			p.used[a] = id
			return a, true
		}
		if a == p.p.Space.Hi {
			return 0, false
		}
	}
}

func (p *Protocol) release(a addrspace.Addr) { delete(p.used, a) }

// NodeDeparting implements protocol.Protocol. Graceful departure floods an
// address release so every replicated table is updated; abrupt departure
// leaks the address until a later configuration round cleans it up.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	ns, ok := p.nodes[id]
	if !ok || !ns.alive {
		return
	}
	if graceful && ns.configured {
		snap := p.rt.Net.Snapshot()
		comp := len(snap.Component(id))
		p.rt.Coll.AddTransmissions(metrics.CatDeparture, comp)
		p.release(ns.ip)
		ns.configured = false
	} else if ns.configured {
		p.unclean = append(p.unclean, id)
		sort.Slice(p.unclean, func(i, j int) bool { return p.unclean[i] < p.unclean[j] })
	}
	ns.alive = false
	p.rt.RemoveNode(id)
}
