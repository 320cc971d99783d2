// Package netstack delivers protocol messages over the unit-disk topology.
//
// It models what the paper assumes: reliable delivery within transmission
// range, multi-hop unicast along shortest paths, and blind flooding where
// every node in the connected component retransmits once. Costs are charged
// to a metrics category in hop counts, exactly the unit all the paper's
// overhead figures use. Delivery latency is hops x per-hop delay.
//
// Routes are computed on a connectivity snapshot taken at send time; the
// per-hop delay is small relative to node motion, so in-flight topology
// changes are ignored (see DESIGN.md §6).
package netstack

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/radio"
	"quorumconf/internal/sim"
)

// Message is one protocol message. Payloads are protocol-defined; the
// netstack never inspects them.
type Message struct {
	// Type names the message for traces (e.g. "COM_REQ", "QUORUM_CLT").
	Type string
	// Src and Dst are the endpoints. For floods and local broadcasts Dst
	// is set per delivery.
	Src, Dst radio.NodeID
	// Category decides which figure's cost bucket the traffic lands in.
	Category metrics.Category
	// Hops is filled in at delivery with the hop distance traversed.
	Hops int
	// Span is the causal trace identifier of the operation this message
	// belongs to (see obs.MintSpan); zero when untraced. It rides every
	// delivery unchanged, so handlers can stamp it onto their events.
	Span uint64
	// Payload carries protocol state.
	Payload any
}

// Handler consumes messages delivered to one node.
type Handler func(Message)

// TraceFunc observes every delivered message (used by cmd/quorumtrace).
type TraceFunc func(at time.Duration, msg Message)

// Network binds the simulator, the topology and the metrics collector into
// a message-passing fabric.
type Network struct {
	sim    *sim.Simulator
	topo   *radio.Topology
	coll   *metrics.Collector
	perHop time.Duration

	handlers map[radio.NodeID]Handler
	trace    TraceFunc
	filter   ReceiveFilter
	lossRate float64

	snapAt  time.Duration
	snapGen uint64
	snap    *radio.Snapshot
	topoGen uint64
}

// New creates a network. perHop is the one-hop transmission delay; it must
// be positive so that multi-hop exchanges order correctly in virtual time.
func New(s *sim.Simulator, topo *radio.Topology, coll *metrics.Collector, perHop time.Duration) (*Network, error) {
	if s == nil || topo == nil || coll == nil {
		return nil, fmt.Errorf("netstack: nil dependency")
	}
	if perHop <= 0 {
		return nil, fmt.Errorf("netstack: per-hop delay %v must be positive", perHop)
	}
	return &Network{
		sim:      s,
		topo:     topo,
		coll:     coll,
		perHop:   perHop,
		handlers: make(map[radio.NodeID]Handler),
	}, nil
}

// SetTrace installs a delivery observer. Pass nil to remove it.
func (n *Network) SetTrace(f TraceFunc) { n.trace = f }

// ReceiveFilter decides whether a message delivered to dst actually reaches
// its handler. Returning false eats the message after transmission costs
// were charged — modeling a byzantine node that silently drops traffic it
// was supposed to process or forward, not a lossy link (see SetLossRate for
// that).
type ReceiveFilter func(dst radio.NodeID, msg Message) bool

// SetReceiveFilter installs a delivery filter. Pass nil to remove it.
func (n *Network) SetReceiveFilter(f ReceiveFilter) { n.filter = f }

// ErrLossRateRange reports a loss rate outside the half-open interval
// [0, 1). Callers validating loss-style probabilities (including quorumd's
// flag parsing) test for it with errors.Is.
var ErrLossRateRange = errors.New("netstack: loss rate outside [0, 1)")

// SetLossRate enables lossy links: each hop drops the message with the
// given probability, so a k-hop delivery succeeds with (1-rate)^k. The
// rate must lie in [0, 1): negative probabilities are meaningless and a
// rate of 1 would silently drop every message, turning a configuration
// mistake into an inert simulation. Out-of-range rates return an error
// wrapping ErrLossRateRange. The paper assumes reliable delivery (rate 0,
// the default); the loss model is an extension for robustness studies.
// Transmission costs are charged whether or not the delivery survives —
// the radio spent the energy.
func (n *Network) SetLossRate(rate float64) error {
	if rate < 0 || rate >= 1 {
		return fmt.Errorf("%w: %v", ErrLossRateRange, rate)
	}
	n.lossRate = rate
	return nil
}

// survives draws whether a delivery over the given hop count gets through.
func (n *Network) survives(hops int) bool {
	if n.lossRate == 0 {
		return true
	}
	for i := 0; i < hops; i++ {
		if n.sim.Rand().Float64() < n.lossRate {
			return false
		}
	}
	return true
}

// PerHop returns the one-hop delay.
func (n *Network) PerHop() time.Duration { return n.perHop }

// Topology returns the underlying topology (shared with the scenario
// driver, which adds and removes nodes).
func (n *Network) Topology() *radio.Topology { return n.topo }

// Metrics returns the collector traffic is charged to.
func (n *Network) Metrics() *metrics.Collector { return n.coll }

// Register installs the message handler for a node. A node without a
// handler silently drops traffic (it has left or has not booted).
func (n *Network) Register(id radio.NodeID, h Handler) error {
	if h == nil {
		return fmt.Errorf("netstack: nil handler for node %d", id)
	}
	n.handlers[id] = h
	return nil
}

// Unregister removes a node's handler (on departure).
func (n *Network) Unregister(id radio.NodeID) { delete(n.handlers, id) }

// InvalidateSnapshot forces the next send to rebuild the connectivity
// snapshot. The scenario driver calls this after adding or removing nodes.
func (n *Network) InvalidateSnapshot() { n.topoGen++ }

// Snapshot returns the connectivity graph at the current virtual time,
// cached so that bursts of messages within one event share one BFS
// substrate.
func (n *Network) Snapshot() *radio.Snapshot {
	now := n.sim.Now()
	if n.snap == nil || n.snapAt != now || n.snapGen != n.topoGen {
		n.snap = n.topo.Snapshot(now)
		n.snapAt = now
		n.snapGen = n.topoGen
	}
	return n.snap
}

// deliver schedules the handler invocation for msg after delay.
func (n *Network) deliver(msg Message, delay time.Duration) {
	n.sim.Schedule(delay, func() {
		h, ok := n.handlers[msg.Dst]
		if !ok {
			return // destination departed in flight
		}
		if n.filter != nil && !n.filter(msg.Dst, msg) {
			return // eaten by a byzantine receiver
		}
		if n.trace != nil {
			n.trace(n.sim.Now(), msg)
		}
		h(msg)
	})
}

// Unicast routes msg from src to dst along a shortest path in the current
// snapshot. It returns the hop count and whether dst was reachable; on
// false, nothing is charged or delivered (the sender's retry logic decides
// what happens next).
func (n *Network) Unicast(src, dst radio.NodeID, msg Message) (int, bool) {
	snap := n.Snapshot()
	hops, ok := snap.HopCount(src, dst)
	if !ok {
		return 0, false
	}
	msg.Src, msg.Dst = src, dst
	msg.Hops = hops
	n.coll.AddTraffic(msg.Category, hops)
	if n.survives(hops) {
		n.deliver(msg, time.Duration(hops)*n.perHop)
	}
	return hops, true
}

// Flood performs blind flooding from src: every node in src's connected
// component retransmits once, and every other node receives the message at
// its hop distance. It returns the number of transmissions charged (the
// component size), the classic cost of network-wide flooding.
func (n *Network) Flood(src radio.NodeID, msg Message) int {
	return n.FloodScoped(src, msg, -1)
}

// FloodScoped floods with a TTL: nodes within maxHops of src receive the
// message, and the source plus nodes strictly inside the TTL retransmit.
// maxHops < 0 means unbounded (the whole component, every member
// retransmitting once — a node cannot know it is the last ring). The return
// value is the number of transmissions charged. A flood from an absent node
// costs and delivers nothing.
func (n *Network) FloodScoped(src radio.NodeID, msg Message, maxHops int) int {
	snap := n.Snapshot()
	if !snap.Contains(src) {
		return 0
	}
	unbounded := maxHops < 0
	k := maxHops
	if unbounded {
		k = snap.Len() // an upper bound on any hop distance
	}
	dist := snap.WithinHops(src, k)
	// Receivers in ID order, not map order: each draws its loss in turn and
	// same-instant deliveries queue in this order, so a seed fixes both.
	ids := make([]radio.NodeID, 0, len(dist))
	for id := range dist {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	transmissions := 0
	for _, id := range ids {
		d := dist[id]
		if unbounded || d < maxHops {
			transmissions++
		}
		if id == src {
			continue
		}
		if !n.survives(d) {
			continue
		}
		m := msg
		m.Src, m.Dst = src, id
		m.Hops = d
		n.deliver(m, time.Duration(d)*n.perHop)
	}
	n.coll.AddTransmissions(msg.Category, transmissions)
	return transmissions
}

// LocalBroadcast transmits once, reaching exactly the one-hop neighbors.
// It returns the number of receivers.
func (n *Network) LocalBroadcast(src radio.NodeID, msg Message) int {
	snap := n.Snapshot()
	if !snap.Contains(src) {
		return 0
	}
	neighbors := snap.Neighbors(src)
	for _, id := range neighbors {
		if !n.survives(1) {
			continue
		}
		m := msg
		m.Src, m.Dst = src, id
		m.Hops = 1
		n.deliver(m, n.perHop)
	}
	n.coll.AddTransmissions(msg.Category, 1)
	return len(neighbors)
}
