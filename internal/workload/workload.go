// Package workload generates the scenarios of the paper's evaluation
// (§VI-A): nodes arrive sequentially into a 1km x 1km area, move to random
// destinations at 20 m/s (random waypoint), and are randomly chosen to
// depart gracefully or abruptly, with the abrupt probability swept between
// 5% and 50%. A Scenario is a deterministic function of its seed, so
// repeated rounds with different seeds give independent samples.
package workload

import (
	"fmt"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// Scenario parameterizes one simulated run.
type Scenario struct {
	// Seed drives node placement, mobility and departure choices.
	Seed int64
	// NumNodes is the network size (50-200 in the paper).
	NumNodes int
	// Area is the deployment region (1km x 1km in the paper).
	Area mobility.Rect
	// TransmissionRange is tr in meters (150 in most experiments).
	TransmissionRange float64
	// Speed is the random-waypoint speed in m/s (20 in the paper). Zero
	// disables mobility: nodes stay at their arrival positions.
	Speed float64
	// ArrivalInterval separates sequential arrivals (default 5s).
	ArrivalInterval time.Duration
	// DepartFraction is the fraction of nodes that leave during the run.
	DepartFraction float64
	// AbruptFraction is, among departing nodes, the fraction leaving
	// abruptly (the paper sweeps 5%-50%).
	AbruptFraction float64
	// SettleTime extends the run beyond the last scheduled event
	// (default 60s).
	SettleTime time.Duration
	// JoinSpot, when set, makes all nodes arrive within JoinRadius of
	// this point — the paper's motivating "many nodes enter the network
	// at the same spot" workload for address borrowing.
	JoinSpot   *mobility.Point
	JoinRadius float64
	// GrowRadius, when set, switches to connected-growth placement: the
	// first node lands anywhere (or near JoinSpot when that is set) and
	// every later arrival lands within GrowRadius of a uniformly chosen
	// earlier arrival's start point. With GrowRadius <= TransmissionRange
	// and static nodes the network is connected throughout formation —
	// multi-hop, multi-head topologies without the transient partitions
	// of independent uniform placement.
	GrowRadius float64
	// ChurnRate enables a sustained-churn phase once the initial network
	// has formed: fresh nodes (IDs continuing above NumNodes) join at
	// this many arrivals per simulated second for ChurnDuration, and each
	// departs again after a jittered ChurnLifetime dwell — abruptly with
	// probability AbruptFraction. This is the allocation-throughput
	// workload: at high rates the allocators face thousands of joins and
	// leaves per simulated second. Zero disables the phase.
	ChurnRate float64
	// ChurnDuration bounds the churn phase (default 30s when ChurnRate
	// is set).
	ChurnDuration time.Duration
	// ChurnLifetime is the mean dwell time of a churn node before it
	// departs, jittered uniformly over [0.5x, 1.5x] (default 10s).
	ChurnLifetime time.Duration
	// ChurnSpot concentrates churn arrivals within ChurnRadius of this
	// point (default: JoinSpot behavior — the whole area when that is
	// unset too). Concentrating churn on one allocator is how the
	// throughput benchmarks expose the serial-ballot bottleneck.
	ChurnSpot   *mobility.Point
	ChurnRadius float64
	// PerHopDelay overrides the default one-hop latency.
	PerHopDelay time.Duration
	// LossRate enables the lossy-link extension: each hop drops a message
	// with this probability. The paper assumes 0 (reliable delivery).
	LossRate float64
	// Byzantine injects protocol-agnostic adversarial behavior: silent
	// droppers and Sybil joiners. Protocol-semantic attacks (vote lying,
	// duplicate claims) are configured on the protocol itself (see
	// core.ByzantineParams); this knob covers what every baseline can be
	// subjected to equally.
	Byzantine Byzantine
	// Tracer receives structured protocol events from the run; nil
	// disables tracing. Rounds of a parallel sweep may share one tracer
	// whose sinks are concurrency-safe (obs.Ring, obs.JSONLWriter).
	Tracer *obs.Tracer
}

// Byzantine selects workload-level adversarial behavior.
type Byzantine struct {
	// SilentDropNodes eat every message delivered to them: the node keeps
	// its radio presence (it still counts for connectivity) but its
	// protocol handler never runs. The simulator routes multi-hop unicast
	// atomically, so "drops what it should forward" is modeled as
	// dropping at the destination — the victim protocols see the same
	// symptom: requests to or through the node silently vanish.
	SilentDropNodes []radio.NodeID
	// SybilNodes each present SybilPerNode fresh identities: extra nodes
	// that join colocated with their attacker shortly after it arrives,
	// consuming allocator state and addresses under made-up IDs.
	SybilNodes []radio.NodeID
	// SybilPerNode is how many identities each Sybil attacker presents
	// (default 3 when SybilNodes is non-empty).
	SybilPerNode int
}

// SybilIDBase offsets Sybil identities so they can never collide with
// churn-phase IDs (which continue upward from NumNodes).
const SybilIDBase = 1_000_000

func (s *Scenario) setDefaults() error {
	if s.NumNodes <= 0 {
		return fmt.Errorf("workload: NumNodes %d must be positive", s.NumNodes)
	}
	if s.Area.Width == 0 && s.Area.Height == 0 {
		s.Area = mobility.Rect{Width: 1000, Height: 1000}
	}
	if s.TransmissionRange == 0 {
		s.TransmissionRange = 150
	}
	if s.ArrivalInterval == 0 {
		s.ArrivalInterval = 5 * time.Second
	}
	if s.SettleTime == 0 {
		s.SettleTime = 60 * time.Second
	}
	if s.DepartFraction < 0 || s.DepartFraction > 1 {
		return fmt.Errorf("workload: DepartFraction %v out of [0,1]", s.DepartFraction)
	}
	if s.AbruptFraction < 0 || s.AbruptFraction > 1 {
		return fmt.Errorf("workload: AbruptFraction %v out of [0,1]", s.AbruptFraction)
	}
	if s.JoinSpot != nil && s.JoinRadius == 0 {
		s.JoinRadius = 100
	}
	if s.ChurnSpot != nil && s.ChurnRadius == 0 {
		s.ChurnRadius = 100
	}
	if s.LossRate < 0 || s.LossRate >= 1 {
		return fmt.Errorf("workload: LossRate %v outside [0, 1)", s.LossRate)
	}
	if s.ChurnRate < 0 {
		return fmt.Errorf("workload: ChurnRate %v must not be negative", s.ChurnRate)
	}
	if s.ChurnRate > 0 {
		if s.ChurnDuration == 0 {
			s.ChurnDuration = 30 * time.Second
		}
		if s.ChurnLifetime == 0 {
			s.ChurnLifetime = 10 * time.Second
		}
	}
	if len(s.Byzantine.SybilNodes) > 0 && s.Byzantine.SybilPerNode == 0 {
		s.Byzantine.SybilPerNode = 3
	}
	return nil
}

// BuildFunc constructs the protocol under test over a fresh runtime.
type BuildFunc func(rt *protocol.Runtime) (protocol.Protocol, error)

// Departure records one scheduled departure.
type Departure struct {
	Node     radio.NodeID
	At       time.Duration
	Graceful bool
}

// Result is the outcome of one run.
type Result struct {
	RT      *protocol.Runtime
	Proto   protocol.Protocol
	Horizon time.Duration
	// Departures lists what was scheduled (for reliability analyses).
	Departures []Departure
}

// Metrics returns the run's collector.
func (r *Result) Metrics() *metrics.Collector { return r.RT.Coll }

// Run executes the scenario against the protocol from build and returns
// after the virtual horizon. The caller can inspect the protocol and the
// collector afterwards; the runtime's event queue still holds periodic
// events, so further RunUntil calls may extend the simulation.
func Run(sc Scenario, build BuildFunc) (*Result, error) {
	prep, err := Prepare(sc, build)
	if err != nil {
		return nil, err
	}
	if err := prep.RT.Sim.RunUntil(prep.Horizon); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return prep, nil
}

// Prepare builds the runtime and schedules the scenario without running
// it. Experiments that need mid-run measurements (e.g. simultaneous head
// kills) schedule their probes before calling RunUntil themselves.
func Prepare(sc Scenario, build BuildFunc) (*Result, error) {
	if err := sc.setDefaults(); err != nil {
		return nil, err
	}
	if build == nil {
		return nil, fmt.Errorf("workload: nil build func")
	}
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{
		Seed:              sc.Seed,
		TransmissionRange: sc.TransmissionRange,
		PerHopDelay:       sc.PerHopDelay,
		Tracer:            sc.Tracer,
	})
	if err != nil {
		return nil, err
	}
	if sc.LossRate > 0 {
		if err := rt.Net.SetLossRate(sc.LossRate); err != nil {
			return nil, err
		}
	}
	proto, err := build(rt)
	if err != nil {
		return nil, err
	}
	rng := rt.Sim.Rand()

	// scheduleArrival places node id at time at near spot (or anywhere in
	// the area when spot is nil), drawing its start point and mobility
	// model from the scenario's seeded randomness. It returns the drawn
	// start point so dependent arrivals (Sybil identities colocated with
	// their attacker) can be placed relative to it.
	scheduleArrival := func(id radio.NodeID, at time.Duration, spot *mobility.Point, radius float64) (mobility.Point, error) {
		start := sc.Area.RandomPoint(rng)
		if spot != nil {
			start = mobility.Point{
				X: clamp(spot.X+(rng.Float64()*2-1)*radius, sc.Area.Width),
				Y: clamp(spot.Y+(rng.Float64()*2-1)*radius, sc.Area.Height),
			}
		}
		var model mobility.Model
		if sc.Speed > 0 {
			w, err := mobility.NewRandomWaypoint(mobility.RandomWaypointConfig{
				Area:      sc.Area,
				MinSpeed:  sc.Speed,
				MaxSpeed:  sc.Speed,
				Start:     start,
				StartTime: at,
			}, sc.Seed*7919+int64(id))
			if err != nil {
				return start, err
			}
			model = w
		} else {
			model = mobility.Static(start)
		}
		rt.Sim.ScheduleAt(at, func() {
			if err := rt.Topo.Add(id, model); err != nil {
				return
			}
			rt.Net.InvalidateSnapshot()
			proto.NodeArrived(id)
		})
		return start, nil
	}

	lastArrival := time.Duration(0)
	arrivalAt := make(map[radio.NodeID]time.Duration, sc.NumNodes)
	arrivalSpot := make(map[radio.NodeID]mobility.Point, sc.NumNodes)
	spots := make([]mobility.Point, 0, sc.NumNodes)
	for i := 0; i < sc.NumNodes; i++ {
		id := radio.NodeID(i)
		at := time.Duration(i) * sc.ArrivalInterval
		lastArrival = at
		spot, radius := sc.JoinSpot, sc.JoinRadius
		if sc.GrowRadius > 0 && len(spots) > 0 {
			anchor := spots[rng.Intn(len(spots))]
			spot, radius = &anchor, sc.GrowRadius
		}
		start, err := scheduleArrival(id, at, spot, radius)
		if err != nil {
			return nil, err
		}
		arrivalAt[id] = at
		arrivalSpot[id] = start
		spots = append(spots, start)
	}
	formed := lastArrival + sc.ArrivalInterval

	// Sybil joiners: each attacker presents SybilPerNode fresh identities,
	// arriving colocated with it shortly after its own arrival.
	for i, attacker := range sc.Byzantine.SybilNodes {
		at, known := arrivalAt[attacker]
		if !known {
			return nil, fmt.Errorf("workload: Sybil attacker %d is not an initial node", attacker)
		}
		spot := arrivalSpot[attacker]
		for j := 0; j < sc.Byzantine.SybilPerNode; j++ {
			sid := radio.NodeID(sc.NumNodes + SybilIDBase + i*sc.Byzantine.SybilPerNode + j)
			sat := at + sc.ArrivalInterval/2 + time.Duration(j)*sc.ArrivalInterval/8
			if _, err := scheduleArrival(sid, sat, &spot, 30); err != nil {
				return nil, err
			}
			a := attacker
			rt.Sim.ScheduleAt(sat, func() {
				sc.Tracer.Emit(obs.Event{Kind: obs.EvByzantineSybilJoin, Node: sid, Peer: a})
			})
		}
	}

	// Silent droppers: their handler never runs — the netstack filter eats
	// every delivery addressed to them after transmission costs were
	// charged.
	if len(sc.Byzantine.SilentDropNodes) > 0 {
		dropSet := make(map[radio.NodeID]bool, len(sc.Byzantine.SilentDropNodes))
		for _, id := range sc.Byzantine.SilentDropNodes {
			dropSet[id] = true
		}
		tracer := sc.Tracer
		rt.Net.SetReceiveFilter(func(dst radio.NodeID, msg netstack.Message) bool {
			if !dropSet[dst] {
				return true
			}
			tracer.Emit(obs.Event{Kind: obs.EvByzantineDrop, Node: dst, Peer: msg.Src, Detail: msg.Type})
			return false
		})
	}

	res := &Result{RT: rt, Proto: proto}
	if sc.DepartFraction > 0 {
		departing := rng.Perm(sc.NumNodes)[:int(float64(sc.NumNodes)*sc.DepartFraction)]
		for _, idx := range departing {
			id := radio.NodeID(idx)
			// Depart some time after the whole network formed.
			at := formed + time.Duration(rng.Int63n(int64(sc.SettleTime/2)+1))
			graceful := rng.Float64() >= sc.AbruptFraction
			res.Departures = append(res.Departures, Departure{Node: id, At: at, Graceful: graceful})
			rt.Sim.ScheduleAt(at, func() { proto.NodeDeparting(id, graceful) })
		}
	}
	res.Horizon = formed + sc.SettleTime

	// Sustained-churn phase: a stream of short-lived nodes joining and
	// leaving while the formed network keeps allocating.
	if sc.ChurnRate > 0 {
		interval := time.Duration(float64(time.Second) / sc.ChurnRate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		spot, radius := sc.JoinSpot, sc.JoinRadius
		if sc.ChurnSpot != nil {
			spot, radius = sc.ChurnSpot, sc.ChurnRadius
		}
		id := radio.NodeID(sc.NumNodes)
		for at := formed; at < formed+sc.ChurnDuration; at += interval {
			if _, err := scheduleArrival(id, at, spot, radius); err != nil {
				return nil, err
			}
			// Dwell jittered over [0.5x, 1.5x] of the mean lifetime.
			dwell := sc.ChurnLifetime/2 + time.Duration(rng.Int63n(int64(sc.ChurnLifetime)+1))
			graceful := rng.Float64() >= sc.AbruptFraction
			leave := at + dwell
			cid := id
			res.Departures = append(res.Departures, Departure{Node: cid, At: leave, Graceful: graceful})
			rt.Sim.ScheduleAt(leave, func() { proto.NodeDeparting(cid, graceful) })
			id++
		}
		res.Horizon = formed + sc.ChurnDuration + sc.SettleTime
	}
	return res, nil
}

func clamp(v, max float64) float64 {
	if v < 0 {
		return 0
	}
	if v > max {
		return max
	}
	return v
}
