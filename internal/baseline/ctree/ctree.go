// Package ctree reimplements the distributed IP address assignment scheme
// of Sheu, Tu & Chan (ICPADS 2005), the coordinator-tree baseline of the
// paper's Figures 10 and 12-14.
//
// Only coordinators maintain IP address pools and configure newcomers; a
// node becomes a coordinator when no coordinator is within two hops,
// receiving half of its nearest coordinator's pool (binary split), and the
// coordinators form a virtual tree (the C-tree) rooted at the first node
// (C-root). Each coordinator periodically reports its allocation state up
// the tree to the C-root, which maintains the allocation table of the
// whole network; when coordinators stop reporting, the C-root initiates
// address reclamation. The scheme has no replication (a coordinator's
// un-reported state dies with it), no address borrowing and no partition
// support — the properties Figures 12-14 contrast against the quorum
// protocol.
package ctree

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
	// CounterRootReclamations counts reclamation rounds the C-root ran.
	CounterRootReclamations = "root_reclamations"
)

// The baseline's timers. The paper does not give [3]'s report period; 5s
// makes the measured maintenance overhead match its "similar performance"
// claim, see EXPERIMENTS.md.
const (
	reportPeriod  = 5 * time.Second // coordinator-to-root update period
	retryInterval = 3 * time.Second // wait between configuration attempts
	missedReports = 2               // silent periods before the root reclaims a coordinator's space
)

// Params configures the baseline.
type Params struct {
	// Space is the address pool, owned entirely by the C-root at start.
	Space addrspace.Block
}

func (p *Params) setDefaults() {
	if p.Space == (addrspace.Block{}) {
		p.Space = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 1023}
	}
}

type nodeState struct {
	id            radio.NodeID
	alive         bool
	configured    bool
	coordinator   bool
	ip            addrspace.Addr
	pool          *addrspace.Pool // coordinator-only
	parent        radio.NodeID    // C-tree parent
	hasParent     bool
	coordinatorOf radio.NodeID // which coordinator configured this common node
	reported      bool         // allocation state reported to the root at least once
	missed        int          // consecutive report periods the root has not heard from it
}

// Protocol implements protocol.Protocol with the C-tree cost model.
type Protocol struct {
	rt *protocol.Runtime
	p  Params

	nodes   map[radio.NodeID]*nodeState
	root    radio.NodeID
	hasRoot bool
	running bool
}

// New creates the baseline over a runtime.
func New(rt *protocol.Runtime, params Params) (*Protocol, error) {
	if rt == nil {
		return nil, fmt.Errorf("ctree: nil runtime")
	}
	params.setDefaults()
	if params.Space.Size() < 2 {
		return nil, fmt.Errorf("ctree: address space %v too small", params.Space)
	}
	return &Protocol{rt: rt, p: params, nodes: make(map[radio.NodeID]*nodeState)}, nil
}

// Name implements protocol.Protocol.
func (p *Protocol) Name() string { return "ctree" }

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

// Coordinators returns the alive coordinators in ascending order.
func (p *Protocol) Coordinators() []radio.NodeID {
	var out []radio.NodeID
	for id, ns := range p.nodes {
		if ns.alive && ns.coordinator {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PoolSize returns a coordinator's pool size — its entire usable space,
// since the scheme has no replication or borrowing (Fig 12's denominator).
func (p *Protocol) PoolSize(id radio.NodeID) uint32 {
	if ns, ok := p.nodes[id]; ok && ns.alive && ns.coordinator && ns.pool != nil {
		return ns.pool.Size()
	}
	return 0
}

// StatePreserved reports whether a departed coordinator's allocation
// information survives: only if it had reported to a still-alive C-root
// (Fig 13's comparison).
func (p *Protocol) StatePreserved(id radio.NodeID) bool {
	ns, ok := p.nodes[id]
	if !ok {
		return false
	}
	rootAlive := false
	if p.hasRoot {
		if rn, ok := p.nodes[p.root]; ok && rn.alive {
			rootAlive = true
		}
	}
	return ns.reported && rootAlive
}

// Root returns the C-root.
func (p *Protocol) Root() (radio.NodeID, bool) { return p.root, p.hasRoot }

func (p *Protocol) isCoordinator(id radio.NodeID) bool {
	ns, ok := p.nodes[id]
	return ok && ns.alive && ns.coordinator
}

// NodeArrived implements protocol.Protocol.
func (p *Protocol) NodeArrived(id radio.NodeID) {
	if !p.running {
		p.running = true
		p.scheduleReports()
	}
	ns := &nodeState{id: id, alive: true}
	p.nodes[id] = ns
	p.rt.Net.InvalidateSnapshot()
	_ = p.rt.Net.Register(id, func(netstack.Message) {})
	p.rt.Sim.Schedule(time.Second, func() { p.tryConfigure(ns) })
}

// scheduleReports runs the periodic coordinator-to-root updates and the
// root's failure detection.
func (p *Protocol) scheduleReports() {
	p.rt.Sim.Schedule(reportPeriod, func() {
		p.runReports()
		p.scheduleReports()
	})
}

func (p *Protocol) runReports() {
	if !p.hasRoot {
		return
	}
	rootNS, ok := p.nodes[p.root]
	if !ok || !rootNS.alive {
		return // the scheme's single point of failure: no root, no upkeep
	}
	snap := p.rt.Net.Snapshot()
	heard := map[radio.NodeID]bool{}
	for _, id := range p.Coordinators() {
		if id == p.root {
			heard[id] = true
			continue
		}
		// Reports travel up the C-tree; path length is approximated by
		// the current hop distance to the root.
		if d, ok := snap.HopCount(id, p.root); ok {
			p.rt.Coll.AddTraffic(metrics.CatSync, d)
			p.nodes[id].reported = true
			p.nodes[id].missed = 0
			heard[id] = true
		}
	}
	// The root notices coordinators that have stopped reporting.
	var silent []radio.NodeID
	for id, ns := range p.nodes {
		if ns.coordinator && !heard[id] {
			silent = append(silent, id)
		}
	}
	sort.Slice(silent, func(i, j int) bool { return silent[i] < silent[j] })
	for _, id := range silent {
		ns := p.nodes[id]
		ns.missed++
		if ns.missed >= missedReports {
			ns.missed = 0
			p.rootReclaim(snap, ns)
		}
	}
}

// rootReclaim is the root-driven address reclamation: a network-wide
// broadcast asking the silent coordinator's members to re-register, each
// answering with a unicast to the root.
func (p *Protocol) rootReclaim(snap *radio.Snapshot, dead *nodeState) {
	rootNS := p.nodes[p.root]
	if rootNS == nil || !rootNS.alive {
		return
	}
	p.rt.Coll.Inc(CounterRootReclamations)
	comp := snap.Component(p.root)
	p.rt.Coll.AddTransmissions(metrics.CatReclamation, len(comp))
	for _, id := range comp {
		ns := p.nodes[id]
		if ns == nil || !ns.alive || !ns.configured || ns.coordinatorOf != dead.id {
			continue
		}
		if d, ok := snap.HopCount(id, p.root); ok {
			p.rt.Coll.AddTraffic(metrics.CatReclamation, d)
		}
	}
	// The root repossesses whatever it knew about the coordinator's pool.
	if dead.pool != nil && rootNS.pool != nil && dead.reported {
		for _, t := range dead.pool.Tables() {
			rootNS.pool.Add(t.Clone())
		}
		dead.pool = nil
	}
	dead.coordinator = false
}

// tryConfigure runs one configuration attempt following the scheme: use a
// coordinator within two hops, otherwise become a coordinator with half
// the nearest coordinator's pool.
func (p *Protocol) tryConfigure(ns *nodeState) {
	if !ns.alive || ns.configured {
		return
	}
	snap := p.rt.Net.Snapshot()

	// Coordinator within two hops?
	var coord *nodeState
	coordDist := 0
	for other, d := range snap.WithinHops(ns.id, 2) {
		if other == ns.id || !p.isCoordinator(other) {
			continue
		}
		if coord == nil || d < coordDist || (d == coordDist && other < coord.id) {
			coord, coordDist = p.nodes[other], d
		}
	}
	if coord != nil {
		addr, ok := coord.pool.FirstFree()
		if !ok {
			// No borrowing in this scheme: wait for reclamation.
			p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
			return
		}
		if _, err := coord.pool.Mark(addr, addrspace.Occupied); err != nil {
			return
		}
		latency := 2 * coordDist
		p.rt.Coll.AddTraffic(metrics.CatConfig, latency)
		coordID := coord.id
		p.rt.Sim.Schedule(time.Duration(latency)*p.rt.Net.PerHop(), func() {
			if !ns.alive || ns.configured {
				return
			}
			ns.ip = addr
			ns.configured = true
			ns.coordinatorOf = coordID
			p.rt.Coll.Observe(SampleConfigLatency, float64(latency))
			p.rt.Coll.Inc(CounterConfigured)
		})
		return
	}

	// No coordinator within two hops: become one with half the nearest
	// coordinator's pool, or found the network.
	var nearest *nodeState
	nearestDist := 0
	for _, other := range snap.Component(ns.id) {
		if other == ns.id || !p.isCoordinator(other) {
			continue
		}
		d, _ := snap.HopCount(ns.id, other)
		if nearest == nil || d < nearestDist || (d == nearestDist && other < nearest.id) {
			nearest, nearestDist = p.nodes[other], d
		}
	}
	if nearest == nil {
		if p.anyConfiguredInComponent(snap, ns.id) {
			p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
			return
		}
		// First node: C-root with the whole space.
		tab, err := addrspace.NewTable(p.p.Space)
		if err != nil {
			return
		}
		ns.pool = addrspace.NewPool(tab)
		addr, _ := ns.pool.FirstFree()
		if _, err := ns.pool.Mark(addr, addrspace.Occupied); err != nil {
			return
		}
		ns.ip = addr
		ns.configured = true
		ns.coordinator = true
		if !p.hasRoot {
			// The true C-root trivially "reported" to itself; later
			// island founders never reach it, so their state is as
			// exposed as any silent coordinator's.
			p.root, p.hasRoot = ns.id, true
			ns.reported = true
		}
		p.rt.Coll.Observe(SampleConfigLatency, 1)
		p.rt.Coll.Inc(CounterConfigured)
		return
	}

	upper, err := nearest.pool.SplitLargest()
	if err != nil {
		p.rt.Sim.Schedule(retryInterval, func() { p.tryConfigure(ns) })
		return
	}
	latency := 2 * nearestDist
	p.rt.Coll.AddTraffic(metrics.CatConfig, latency)
	parentID := nearest.id
	p.rt.Sim.Schedule(time.Duration(latency)*p.rt.Net.PerHop(), func() {
		if !ns.alive || ns.configured {
			return
		}
		ns.pool = addrspace.NewPool(upper)
		addr, ok := ns.pool.FirstFree()
		if !ok {
			return
		}
		if _, err := ns.pool.Mark(addr, addrspace.Occupied); err != nil {
			return
		}
		ns.ip = addr
		ns.configured = true
		ns.coordinator = true
		ns.parent, ns.hasParent = parentID, true
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

// NodeDeparting implements protocol.Protocol. Graceful common nodes return
// the address to their coordinator; graceful coordinators hand their pool
// to the C-tree parent. Abrupt departures leak until the root's report
// timeouts trigger reclamation.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	ns, ok := p.nodes[id]
	if !ok || !ns.alive {
		return
	}
	if graceful && ns.configured {
		snap := p.rt.Net.Snapshot()
		if ns.coordinator {
			if parent := p.liveParent(ns); parent != nil {
				if d, ok := snap.HopCount(id, parent.id); ok {
					p.rt.Coll.AddTraffic(metrics.CatDeparture, d)
				}
				if ns.pool != nil {
					if _, err := ns.pool.Mark(ns.ip, addrspace.Free); err == nil && parent.pool != nil {
						for _, t := range ns.pool.Tables() {
							parent.pool.Add(t.Clone())
						}
					}
				}
			}
			// The handover is complete: the node is no longer a
			// coordinator, so the root must not reclaim it again.
			ns.coordinator = false
			ns.pool = nil
			// Tell the root the coordinator resigned.
			if p.hasRoot {
				if d, ok := snap.HopCount(id, p.root); ok {
					p.rt.Coll.AddTraffic(metrics.CatDeparture, d)
				}
			}
		} else {
			if coord, ok := p.nodes[ns.coordinatorOf]; ok && coord.alive && coord.coordinator && coord.pool != nil {
				if d, ok := snap.HopCount(id, coord.id); ok {
					p.rt.Coll.AddTraffic(metrics.CatDeparture, d)
				}
				_, _ = coord.pool.Mark(ns.ip, addrspace.Free)
			}
		}
	}
	ns.alive = false
	p.rt.RemoveNode(id)
}

func (p *Protocol) liveParent(ns *nodeState) *nodeState {
	if !ns.hasParent {
		return nil
	}
	parent, ok := p.nodes[ns.parent]
	if !ok || !parent.alive || !parent.coordinator {
		return nil
	}
	return parent
}
