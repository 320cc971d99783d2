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
	"sort"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline"
	"quorumconf/internal/metrics"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// CounterCleanups counts lazy reclamations of dead nodes' addresses.
const CounterCleanups = "cleanups"

type nodeState struct{ baseline.Node }

// Protocol implements protocol.Protocol with MANETconf's cost model.
type Protocol struct {
	baseline.Roster[*nodeState]

	// used is the replicated allocation table. Full replication keeps
	// every copy identical outside windows we do not model, so one shared
	// table stands in for all of them.
	used    map[addrspace.Addr]radio.NodeID
	unclean []radio.NodeID // abruptly departed, not yet noticed
}

// New creates the baseline over a runtime.
func New(rt *protocol.Runtime, params baseline.Params) (*Protocol, error) {
	r, err := baseline.NewRoster[*nodeState]("manetconf", rt, params)
	if err != nil {
		return nil, err
	}
	return &Protocol{Roster: r, used: make(map[addrspace.Addr]radio.NodeID)}, nil
}

// NodeArrived implements protocol.Protocol.
func (p *Protocol) NodeArrived(id radio.NodeID) {
	p.Arrive(&nodeState{baseline.Node{ID: id}}, p.tryConfigure)
}

// tryConfigure runs one MANETconf configuration attempt.
func (p *Protocol) tryConfigure(ns *nodeState) {
	if !ns.Alive || ns.Configured {
		return
	}
	snap := p.RT.Net.Snapshot()

	// Pick the initiator: any configured one-hop neighbor.
	var initiator radio.NodeID
	haveInit := false
	for _, nb := range snap.Neighbors(ns.ID) {
		if p.IsConfigured(nb) {
			initiator, haveInit = nb, true
			break
		}
	}
	if !haveInit {
		// No configured neighbor: either we are the first node in this
		// component (take an address directly) or we wait for one.
		if p.AnyConfiguredInComponent(snap, ns.ID) {
			p.Retry(ns, p.tryConfigure)
			return
		}
		if addr, ok := p.allocate(ns.ID); ok {
			p.Complete(ns, addr, 1) // its own broadcast
		}
		return
	}

	// Lazy cleanup: dead nodes cannot affirm; the initiator times out on
	// them, removes their bindings and floods the retraction.
	p.cleanupDead(snap, initiator)

	addr, ok := p.allocate(ns.ID)
	if !ok {
		p.Retry(ns, p.tryConfigure)
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
	p.RT.Coll.AddTraffic(metrics.CatConfig, 1) // COM request to initiator
	p.RT.Coll.AddTransmissions(metrics.CatConfig, comp)
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
	p.RT.Coll.AddTraffic(metrics.CatConfig, replies)
	p.RT.Coll.AddTransmissions(metrics.CatConfig, comp)
	p.RT.Coll.AddTraffic(metrics.CatConfig, 1) // assignment to requester

	// Critical path: request, flood out, farthest reply back, assignment.
	p.Grant(ns, 1+2*ecc+1,
		func() (addrspace.Addr, bool) { return addr, true },
		func() { p.release(addr) })
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
		p.RT.Coll.AddTransmissions(metrics.CatReclamation, comp)
		p.RT.Coll.AddTransmissions(metrics.CatReclamation, comp)
		if ns, ok := p.Nodes[dead]; ok && ns.Configured {
			p.release(ns.IP)
			ns.Configured = false
		}
		p.RT.Coll.Inc(CounterCleanups)
	}
	p.unclean = nil
}

// allocate picks the lowest unused address.
func (p *Protocol) allocate(id radio.NodeID) (addrspace.Addr, bool) {
	for a := p.Space.Lo; ; a++ {
		if _, taken := p.used[a]; !taken {
			p.used[a] = id
			return a, true
		}
		if a == p.Space.Hi {
			return 0, false
		}
	}
}

func (p *Protocol) release(a addrspace.Addr) { delete(p.used, a) }

// NodeDeparting implements protocol.Protocol. Graceful departure floods an
// address release so every replicated table is updated; abrupt departure
// leaks the address until a later configuration round cleans it up.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	ns, ok := p.Live(id)
	if !ok {
		return
	}
	if graceful && ns.Configured {
		snap := p.RT.Net.Snapshot()
		comp := len(snap.Component(id))
		p.RT.Coll.AddTransmissions(metrics.CatDeparture, comp)
		p.release(ns.IP)
		ns.Configured = false
	} else if ns.Configured {
		p.unclean = append(p.unclean, id)
		sort.Slice(p.unclean, func(i, j int) bool { return p.unclean[i] < p.unclean[j] })
	}
	p.Depart(ns)
}
