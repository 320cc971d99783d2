// Package protocol defines the contract between the scenario driver and an
// autoconfiguration protocol, plus the Runtime bundle of simulation
// services every protocol implementation consumes and the address
// uniqueness check every protocol is held to. The quorum protocol and the
// three baselines (MANETconf, buddy, C-tree) all implement Protocol, so the
// experiment harness can sweep them interchangeably.
package protocol

import (
	"fmt"
	"sort"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/sim"
)

// Protocol is an IP autoconfiguration protocol under simulation. The
// scenario driver adds a node's mobility model to the topology first, then
// calls NodeArrived; the protocol is responsible for registering the node's
// message handler and running its configuration procedure in virtual time.
//
// For graceful departures the protocol runs its departure exchange and then
// removes the node from the topology itself. For abrupt departures
// (graceful == false) the protocol must immediately remove the node and
// discard its local state without generating traffic: the node has crashed,
// and the rest of the network may only learn of it through the protocol's
// own detection machinery.
type Protocol interface {
	// Name identifies the protocol in experiment output.
	Name() string
	// NodeArrived introduces a node already present in the topology.
	NodeArrived(id radio.NodeID)
	// NodeDeparting removes a node, gracefully or abruptly.
	NodeDeparting(id radio.NodeID, graceful bool)
	// IsConfigured reports whether the node currently holds an address.
	IsConfigured(id radio.NodeID) bool
	// IP returns the address an alive, configured node holds.
	IP(id radio.NodeID) (addrspace.Addr, bool)
}

// The sample and counter every protocol reports on a completed
// configuration, so experiment code compares them directly.
const (
	// SampleConfigLatency is the configuration's critical-path hop count.
	SampleConfigLatency = "config_latency_hops"
	// CounterConfigured counts completed configurations.
	CounterConfigured = "configured"
)

// DefaultSpace is the address pool a protocol takes when its parameters
// leave the space zero: 1024 addresses from 10.0.0.1.
var DefaultSpace = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 1023}

// Conflicts returns the groups of nodes among ids that hold one address
// while they can reach another holder in snap, each group in ascending
// order. The paper's central invariant is that this is empty once merges
// settle. Disconnected islands may legitimately reuse an address (they are
// separate networks), so such reuse is no conflict.
func Conflicts(p Protocol, ids []radio.NodeID, snap *radio.Snapshot) map[addrspace.Addr][]radio.NodeID {
	byAddr := map[addrspace.Addr][]radio.NodeID{}
	for _, id := range ids {
		if a, ok := p.IP(id); ok {
			byAddr[a] = append(byAddr[a], id)
		}
	}
	out := map[addrspace.Addr][]radio.NodeID{}
	for a, holders := range byAddr {
		if len(holders) < 2 {
			continue
		}
		sort.Slice(holders, func(i, j int) bool { return holders[i] < holders[j] })
		var conflicted []radio.NodeID
		for i, x := range holders {
			for j, y := range holders {
				if i != j && snap.Reachable(x, y) {
					conflicted = append(conflicted, x)
					break
				}
			}
		}
		if len(conflicted) > 1 {
			out[a] = conflicted
		}
	}
	return out
}

// Runtime bundles the simulation services protocols run on.
type Runtime struct {
	Sim  *sim.Simulator
	Topo *radio.Topology
	Net  *netstack.Network
	Coll *metrics.Collector
	// Tracer receives structured protocol events; nil (the default)
	// disables tracing at near-zero cost. Emit through Runtime.Trace so
	// events carry virtual timestamps.
	Tracer *obs.Tracer

	clock obs.Clock
}

// RuntimeConfig parameterizes NewRuntime. The zero value of every field
// but TransmissionRange is a working default.
type RuntimeConfig struct {
	// Seed drives every random choice in the run.
	Seed int64
	// TransmissionRange is tr in meters (150 in most of the paper).
	TransmissionRange float64
	// PerHopDelay is the one-hop transmission latency. Defaults to
	// DefaultPerHop when zero.
	PerHopDelay time.Duration
	// Tracer receives structured protocol events; nil keeps tracing
	// disabled.
	Tracer *obs.Tracer
	// Collector substitutes the metrics collector the runtime would
	// otherwise allocate — for sharing one collector across runtimes or
	// pre-seeding counters.
	Collector *metrics.Collector
	// Clock overrides the timestamp source for emitted events. Nil takes
	// the runtime's virtual clock (Sim.Now), which is what simulation
	// traces want; tests pin it for deterministic timestamps.
	Clock obs.Clock
}

// DefaultPerHop is the one-hop delay used when the config leaves it zero.
const DefaultPerHop = 5 * time.Millisecond

// NewRuntime assembles a simulator, topology, collector and network.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.PerHopDelay == 0 {
		cfg.PerHopDelay = DefaultPerHop
	}
	topo, err := radio.NewTopology(cfg.TransmissionRange)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	s := sim.New(cfg.Seed)
	coll := cfg.Collector
	if coll == nil {
		coll = metrics.New()
	}
	net, err := netstack.New(s, topo, coll, cfg.PerHopDelay)
	if err != nil {
		return nil, fmt.Errorf("protocol: %w", err)
	}
	rt := &Runtime{Sim: s, Topo: topo, Net: net, Coll: coll, Tracer: cfg.Tracer, clock: cfg.Clock}
	if rt.clock == nil {
		rt.clock = s.Now
	}
	return rt, nil
}

// Trace stamps e with the runtime's clock (virtual time by default) and
// emits it. With no tracer attached this is a struct fill and one branch;
// see BenchmarkTracerDisabled in internal/core.
func (r *Runtime) Trace(e obs.Event) {
	if r.Tracer == nil {
		return
	}
	e.Time = r.clock()
	r.Tracer.Emit(e)
}

// RemoveNode removes a node from the fabric: handler unregistered, mobility
// dropped, connectivity snapshot invalidated. Protocols call this from both
// departure paths.
func (r *Runtime) RemoveNode(id radio.NodeID) {
	r.Net.Unregister(id)
	r.Topo.Remove(id)
	r.Net.InvalidateSnapshot()
}
