// Package baseline holds what the three comparison protocols of the
// paper's evaluation (MANETconf, the buddy scheme and C-tree) share: the
// node roster with each node's address, the parameters, the arrival and
// retry timers, and the step that completes a configuration. Each protocol
// embeds a Roster and keeps only its own allocation, maintenance and
// departure rules.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/netstack"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// retryInterval is the wait between configuration attempts of a requester
// that found no one to configure it.
const retryInterval = 3 * time.Second

// Params configures a baseline.
type Params struct {
	// Space is the address pool the network allocates from. The zero
	// value takes protocol.DefaultSpace.
	Space addrspace.Block
}

// Node is the state every baseline keeps per node; each protocol's node
// type embeds it.
type Node struct {
	ID         radio.NodeID
	Alive      bool
	Configured bool
	IP         addrspace.Addr
}

func (n *Node) node() *Node { return n }

// Member is a protocol's node type: a pointer to a struct that embeds
// Node.
type Member interface{ node() *Node }

// Roster is the runtime, address space and node table a baseline runs on.
// Its Name, IsConfigured and IP implement those of protocol.Protocol.
type Roster[M Member] struct {
	RT    *protocol.Runtime
	Space addrspace.Block
	Nodes map[radio.NodeID]M

	name string
}

// NewRoster checks params and fills in their defaults for the baseline
// called name.
func NewRoster[M Member](name string, rt *protocol.Runtime, params Params) (Roster[M], error) {
	if rt == nil {
		return Roster[M]{}, fmt.Errorf("%s: nil runtime", name)
	}
	if params.Space == (addrspace.Block{}) {
		params.Space = protocol.DefaultSpace
	}
	if params.Space.Size() < 2 {
		return Roster[M]{}, fmt.Errorf("%s: address space %v too small", name, params.Space)
	}
	return Roster[M]{RT: rt, Space: params.Space, Nodes: make(map[radio.NodeID]M), name: name}, nil
}

// Name implements protocol.Protocol.
func (r *Roster[M]) Name() string { return r.name }

// Live returns the node's state when it is alive.
func (r *Roster[M]) Live(id radio.NodeID) (M, bool) {
	m, ok := r.Nodes[id]
	if ok && m.node().Alive {
		return m, true
	}
	var none M
	return none, false
}

// Configured returns the node's state when it is alive and holds an
// address.
func (r *Roster[M]) Configured(id radio.NodeID) (M, bool) {
	m, ok := r.Live(id)
	if ok && m.node().Configured {
		return m, true
	}
	var none M
	return none, false
}

// IsConfigured implements protocol.Protocol.
func (r *Roster[M]) IsConfigured(id radio.NodeID) bool {
	_, ok := r.Configured(id)
	return ok
}

// IP implements protocol.Protocol.
func (r *Roster[M]) IP(id radio.NodeID) (addrspace.Addr, bool) {
	if m, ok := r.Configured(id); ok {
		return m.node().IP, true
	}
	return 0, false
}

// ConfiguredCount returns the number of alive configured nodes.
func (r *Roster[M]) ConfiguredCount() int {
	return len(r.SortedConfigured())
}

// SortedConfigured returns the alive configured nodes in ascending order.
func (r *Roster[M]) SortedConfigured() []radio.NodeID {
	var out []radio.NodeID
	for id, m := range r.Nodes {
		if m.node().Alive && m.node().Configured {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AnyConfiguredInComponent reports whether a configured node other than id
// shares id's component; then id must be configured through it rather than
// found a network of its own.
func (r *Roster[M]) AnyConfiguredInComponent(snap *radio.Snapshot, id radio.NodeID) bool {
	for _, other := range snap.Component(id) {
		if other != id && r.IsConfigured(other) {
			return true
		}
	}
	return false
}

// Arrive adds m, whose node is already in the topology, to the roster and
// makes its first configuration attempt a second later.
func (r *Roster[M]) Arrive(m M, attempt func(M)) {
	n := m.node()
	n.Alive = true
	r.Nodes[n.ID] = m
	r.RT.Net.InvalidateSnapshot()
	// The cost models send no messages, so the handler is a no-op; it
	// errs only when nil.
	_ = r.RT.Net.Register(n.ID, func(netstack.Message) {})
	r.RT.Sim.Schedule(time.Second, func() { attempt(m) })
}

// Retry makes m's next configuration attempt after retryInterval.
func (r *Roster[M]) Retry(m M, attempt func(M)) {
	r.RT.Sim.Schedule(retryInterval, func() { attempt(m) })
}

// Complete gives m the address ip after a configuration whose critical
// path took hops, and records the sample and counter every protocol
// reports.
func (r *Roster[M]) Complete(m M, ip addrspace.Addr, hops int) {
	n := m.node()
	n.IP, n.Configured = ip, true
	r.RT.Coll.Observe(protocol.SampleConfigLatency, float64(hops))
	r.RT.Coll.Inc(protocol.CounterConfigured)
}

// Grant completes m's configuration when the granter's reply lands, hops
// per-hop delays from now: take sets m's own state and returns its address
// (false leaves m unconfigured). A requester that departed or was
// configured meanwhile takes nothing, and undo hands back what the granter
// set aside for it.
func (r *Roster[M]) Grant(m M, hops int, take func() (addrspace.Addr, bool), undo func()) {
	r.RT.Sim.Schedule(time.Duration(hops)*r.RT.Net.PerHop(), func() {
		if n := m.node(); !n.Alive || n.Configured {
			undo()
			return
		}
		if ip, ok := take(); ok {
			r.Complete(m, ip, hops)
		}
	})
}

// Depart marks m dead and removes its node from the network.
func (r *Roster[M]) Depart(m M) {
	m.node().Alive = false
	r.RT.RemoveNode(m.node().ID)
}
