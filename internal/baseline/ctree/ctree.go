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
	"sort"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline"
	"quorumconf/internal/metrics"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// CounterRootReclamations counts reclamation rounds the C-root ran.
const CounterRootReclamations = "root_reclamations"

// The baseline's timers. The paper does not give [3]'s report period; 5s
// makes the measured maintenance overhead match its "similar performance"
// claim, see EXPERIMENTS.md.
const (
	reportPeriod  = 5 * time.Second // coordinator-to-root update period
	missedReports = 2               // silent periods before the root reclaims a coordinator's space
)

type nodeState struct {
	baseline.Node
	coordinator   bool
	pool          *addrspace.Pool // coordinator-only
	parent        radio.NodeID    // C-tree parent
	hasParent     bool
	coordinatorOf radio.NodeID // which coordinator configured this common node
	reported      bool         // allocation state reported to the root at least once
	missed        int          // consecutive report periods the root has not heard from it
}

// Protocol implements protocol.Protocol with the C-tree cost model.
type Protocol struct {
	baseline.Roster[*nodeState]

	root    radio.NodeID
	hasRoot bool
	running bool
}

// New creates the baseline over a runtime.
func New(rt *protocol.Runtime, params baseline.Params) (*Protocol, error) {
	r, err := baseline.NewRoster[*nodeState]("ctree", rt, params)
	if err != nil {
		return nil, err
	}
	return &Protocol{Roster: r}, nil
}

// Coordinators returns the alive coordinators in ascending order.
func (p *Protocol) Coordinators() []radio.NodeID {
	var out []radio.NodeID
	for id, ns := range p.Nodes {
		if ns.Alive && ns.coordinator {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PoolSize returns a coordinator's pool size — its entire usable space,
// since the scheme has no replication or borrowing (Fig 12's denominator).
func (p *Protocol) PoolSize(id radio.NodeID) uint32 {
	if ns, ok := p.coordinator(id); ok && ns.pool != nil {
		return ns.pool.Size()
	}
	return 0
}

// StatePreserved reports whether a departed coordinator's allocation
// information survives: only if it had reported to a still-alive C-root
// (Fig 13's comparison).
func (p *Protocol) StatePreserved(id radio.NodeID) bool {
	ns, ok := p.Nodes[id]
	if !ok {
		return false
	}
	_, rootAlive := p.liveRoot()
	return ns.reported && rootAlive
}

// Root returns the C-root.
func (p *Protocol) Root() (radio.NodeID, bool) { return p.root, p.hasRoot }

// liveRoot returns the C-root's state while it is alive.
func (p *Protocol) liveRoot() (*nodeState, bool) {
	if !p.hasRoot {
		return nil, false
	}
	return p.Live(p.root)
}

// coordinator returns the node's state when it is an alive coordinator.
func (p *Protocol) coordinator(id radio.NodeID) (*nodeState, bool) {
	ns, ok := p.Live(id)
	return ns, ok && ns.coordinator
}

// NodeArrived implements protocol.Protocol.
func (p *Protocol) NodeArrived(id radio.NodeID) {
	if !p.running {
		p.running = true
		p.scheduleReports()
	}
	p.Arrive(&nodeState{Node: baseline.Node{ID: id}}, p.tryConfigure)
}

// scheduleReports runs the periodic coordinator-to-root updates and the
// root's failure detection.
func (p *Protocol) scheduleReports() {
	p.RT.Sim.Schedule(reportPeriod, func() {
		p.runReports()
		p.scheduleReports()
	})
}

func (p *Protocol) runReports() {
	rootNS, ok := p.liveRoot()
	if !ok {
		return // the scheme's single point of failure: no root, no upkeep
	}
	snap := p.RT.Net.Snapshot()
	heard := map[radio.NodeID]bool{}
	for _, id := range p.Coordinators() {
		if id == p.root {
			heard[id] = true
			continue
		}
		// Reports travel up the C-tree; path length is approximated by
		// the current hop distance to the root.
		if d, ok := snap.HopCount(id, p.root); ok {
			p.RT.Coll.AddTraffic(metrics.CatSync, d)
			p.Nodes[id].reported = true
			p.Nodes[id].missed = 0
			heard[id] = true
		}
	}
	// The root notices coordinators that have stopped reporting.
	var silent []radio.NodeID
	for id, ns := range p.Nodes {
		if ns.coordinator && !heard[id] {
			silent = append(silent, id)
		}
	}
	sort.Slice(silent, func(i, j int) bool { return silent[i] < silent[j] })
	for _, id := range silent {
		ns := p.Nodes[id]
		ns.missed++
		if ns.missed >= missedReports {
			ns.missed = 0
			p.rootReclaim(snap, rootNS, ns)
		}
	}
}

// rootReclaim is the root-driven address reclamation: a network-wide
// broadcast asking the silent coordinator's members to re-register, each
// answering with a unicast to the root.
func (p *Protocol) rootReclaim(snap *radio.Snapshot, rootNS, dead *nodeState) {
	p.RT.Coll.Inc(CounterRootReclamations)
	comp := snap.Component(p.root)
	p.RT.Coll.AddTransmissions(metrics.CatReclamation, len(comp))
	for _, id := range comp {
		if ns, ok := p.Configured(id); !ok || ns.coordinatorOf != dead.ID {
			continue
		}
		if d, ok := snap.HopCount(id, p.root); ok {
			p.RT.Coll.AddTraffic(metrics.CatReclamation, d)
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
	if !ns.Alive || ns.Configured {
		return
	}
	snap := p.RT.Net.Snapshot()

	// Coordinator within two hops?
	var coord *nodeState
	coordDist := 0
	for other, d := range snap.WithinHops(ns.ID, 2) {
		if other == ns.ID {
			continue
		}
		if c, ok := p.coordinator(other); ok && (coord == nil || d < coordDist || (d == coordDist && other < coord.ID)) {
			coord, coordDist = c, d
		}
	}
	if coord != nil {
		addr, ok := coord.pool.FirstFree()
		if !ok {
			// No borrowing in this scheme: wait for reclamation.
			p.Retry(ns, p.tryConfigure)
			return
		}
		if _, err := coord.pool.Mark(addr, addrspace.Occupied); err != nil {
			return
		}
		latency := 2 * coordDist
		p.RT.Coll.AddTraffic(metrics.CatConfig, latency)
		p.Grant(ns, latency,
			func() (addrspace.Addr, bool) {
				ns.coordinatorOf = coord.ID
				return addr, true
			},
			func() {
				if coord.pool != nil {
					_, _ = coord.pool.Mark(addr, addrspace.Free)
				}
			})
		return
	}

	// No coordinator within two hops: become one with half the nearest
	// coordinator's pool, or found the network.
	var nearest *nodeState
	nearestDist := 0
	for _, other := range snap.Component(ns.ID) {
		if other == ns.ID {
			continue
		}
		c, ok := p.coordinator(other)
		if !ok {
			continue
		}
		d, _ := snap.HopCount(ns.ID, other)
		if nearest == nil || d < nearestDist || (d == nearestDist && other < nearest.ID) {
			nearest, nearestDist = c, d
		}
	}
	if nearest == nil {
		if p.AnyConfiguredInComponent(snap, ns.ID) {
			p.Retry(ns, p.tryConfigure)
			return
		}
		// First node: C-root with the whole space.
		tab, err := addrspace.NewTable(p.Space)
		if err != nil {
			return
		}
		ns.pool = addrspace.NewPool(tab)
		addr, _ := ns.pool.FirstFree()
		if _, err := ns.pool.Mark(addr, addrspace.Occupied); err != nil {
			return
		}
		ns.coordinator = true
		if !p.hasRoot {
			// The true C-root trivially "reported" to itself; later
			// island founders never reach it, so their state is as
			// exposed as any silent coordinator's.
			p.root, p.hasRoot = ns.ID, true
			ns.reported = true
		}
		p.Complete(ns, addr, 1)
		return
	}

	upper, err := nearest.pool.SplitLargest()
	if err != nil {
		p.Retry(ns, p.tryConfigure)
		return
	}
	latency := 2 * nearestDist
	p.RT.Coll.AddTraffic(metrics.CatConfig, latency)
	p.Grant(ns, latency,
		func() (addrspace.Addr, bool) {
			ns.pool = addrspace.NewPool(upper)
			addr, ok := ns.pool.FirstFree()
			if !ok {
				return 0, false
			}
			if _, err := ns.pool.Mark(addr, addrspace.Occupied); err != nil {
				return 0, false
			}
			ns.coordinator = true
			ns.parent, ns.hasParent = nearest.ID, true
			return addr, true
		},
		func() {
			if nearest.pool != nil {
				nearest.pool.Add(upper)
			}
		})
}

// NodeDeparting implements protocol.Protocol. Graceful common nodes return
// the address to their coordinator; graceful coordinators hand their pool
// to the C-tree parent. Abrupt departures leak until the root's report
// timeouts trigger reclamation.
func (p *Protocol) NodeDeparting(id radio.NodeID, graceful bool) {
	ns, ok := p.Live(id)
	if !ok {
		return
	}
	if graceful && ns.Configured {
		snap := p.RT.Net.Snapshot()
		if ns.coordinator {
			if parent, ok := p.liveParent(ns); ok {
				if d, ok := snap.HopCount(id, parent.ID); ok {
					p.RT.Coll.AddTraffic(metrics.CatDeparture, d)
				}
				if ns.pool != nil {
					if _, err := ns.pool.Mark(ns.IP, addrspace.Free); err == nil && parent.pool != nil {
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
					p.RT.Coll.AddTraffic(metrics.CatDeparture, d)
				}
			}
		} else if coord, ok := p.coordinator(ns.coordinatorOf); ok && coord.pool != nil {
			if d, ok := snap.HopCount(id, coord.ID); ok {
				p.RT.Coll.AddTraffic(metrics.CatDeparture, d)
			}
			_, _ = coord.pool.Mark(ns.IP, addrspace.Free)
		}
	}
	p.Depart(ns)
}

func (p *Protocol) liveParent(ns *nodeState) (*nodeState, bool) {
	if !ns.hasParent {
		return nil, false
	}
	return p.coordinator(ns.parent)
}
