// Package health measures a space owner's replica set: replica
// confirmations are leases (a REPLICA_ACK is fresh for a TTL), and every
// check recomputes the effective replication factor from those leases plus
// the failure detector's verdict.
//
// The monitor only measures. Deciding who holds a replica belongs to each
// engine's one designation rule (quorumd's refreshReplicaSet, the
// simulator's maintainReplicationLevel and Td path); Evaluate reports the
// factor against target and names the live holders whose lease passed
// half-life, so the owner re-syncs them before they lapse — the way
// ipfs-cluster re-pins underpinned CIDs.
//
// Monitor is a pure state machine: it holds no locks, does no I/O, and is
// driven from the owner's event loop, which makes it unit-testable without
// sockets or clocks.
//
// Observability: Evaluate emits EvHealthCheck when the factor or target
// moved, and the edge-triggered pair EvReplicaUnderreplicated /
// EvReplicaRestored when the factor crosses target. The event schema is
// append-only (DESIGN.md Appendix D).
package health

import (
	"fmt"
	"time"

	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// Config parameterizes one monitor.
type Config struct {
	// Target is the desired replica-holder count including the owner.
	// Target <= 0 means full replication: every live member should hold a
	// replica and the target tracks the live membership size.
	Target int
	// TTL is how long one replica acknowledgement stays fresh. Holders are
	// re-synced at half-life so a healthy cluster never lets a lease lapse.
	TTL time.Duration
}

// PeerState is the owner's view of one electorate member at check time.
type PeerState struct {
	// ID is the member's node ID.
	ID radio.NodeID
	// Dead reports the failure detector's verdict.
	Dead bool
	// Holder reports whether the member is currently designated to hold a
	// replica of the owner's table.
	Holder bool
	// AckedAt is when the member last confirmed its replica with
	// REPLICA_ACK; zero means never. Only its difference from the check's
	// now counts, so an engine may put its own clock on any origin.
	AckedAt time.Time
}

// Check is the outcome of one evaluation.
type Check struct {
	// Factor is the effective replication factor: the owner plus every
	// live designated holder with a fresh acknowledgement.
	Factor int
	// Target is the effective target: the configured target capped at the
	// live membership (a 3-node cluster cannot hold 5 replicas).
	Target int
	// Under reports Factor < Target.
	Under bool
	// Refresh lists live designated holders whose lease passed half-life
	// (or never arrived), in the order given, to be re-synced now.
	Refresh []radio.NodeID
}

// Monitor tracks factor transitions between checks so the under/restored
// events fire on edges, not levels. Not safe for concurrent use; the
// daemon drives it from its event loop.
type Monitor struct {
	cfg    Config
	tracer *obs.Tracer

	checked    bool
	under      bool
	lastFactor int
	lastTarget int
}

// New returns a monitor emitting its events through tracer (nil is valid
// and silences them).
func New(cfg Config, tracer *obs.Tracer) *Monitor {
	return &Monitor{cfg: cfg, tracer: tracer}
}

// Measure computes the effective replication factor and target for one
// owner view without emitting events or tracking transitions — the
// read-only measurement /v1/health and /v1/status serve. Peers must not
// contain the owner itself.
func (m *Monitor) Measure(now time.Time, peers []PeerState) (factor, target int) {
	live := 0
	for _, p := range peers {
		if p.Dead {
			continue
		}
		live++
		if p.Holder && m.Fresh(now, p.AckedAt) {
			factor++
		}
	}
	factor++ // the owner's own copy is replica number one
	target = m.cfg.Target
	if target <= 0 || target > live+1 {
		target = live + 1
	}
	return factor, target
}

// Fresh reports whether one acknowledgement timestamp still counts toward
// the factor under the monitor's lease.
func (m *Monitor) Fresh(now, ackedAt time.Time) bool { return fresh(now, ackedAt, m.cfg.TTL) }

func fresh(now, ackedAt time.Time, ttl time.Duration) bool {
	return !ackedAt.IsZero() && now.Sub(ackedAt) < ttl
}

// Evaluate runs one health check for the owner self over its electorate
// view, emits the edge events, and names the holders to re-sync. Peers must
// not contain self.
func (m *Monitor) Evaluate(now time.Time, self radio.NodeID, peers []PeerState) Check {
	var c Check
	for _, p := range peers {
		if p.Holder && !p.Dead && !fresh(now, p.AckedAt, m.cfg.TTL/2) {
			c.Refresh = append(c.Refresh, p.ID)
		}
	}
	c.Factor, c.Target = m.Measure(now, peers)
	c.Under = c.Factor < c.Target
	m.emit(self, c)
	return c
}

// emit translates one check into trace events: a health_check whenever the
// measurement moved, and the under/restored pair on target crossings.
func (m *Monitor) emit(self radio.NodeID, c Check) {
	moved := !m.checked || c.Factor != m.lastFactor || c.Target != m.lastTarget
	if moved {
		m.tracer.Emit(obs.Event{
			Kind:   obs.EvHealthCheck,
			Node:   self,
			MsgID:  uint64(c.Factor),
			Detail: rfDetail(c.Factor, c.Target),
		})
	}
	if c.Under && !m.under {
		m.tracer.Emit(obs.Event{
			Kind:   obs.EvReplicaUnderreplicated,
			Node:   self,
			MsgID:  uint64(c.Factor),
			Detail: rfDetail(c.Factor, c.Target),
		})
	}
	if !c.Under && m.under {
		m.tracer.Emit(obs.Event{
			Kind:   obs.EvReplicaRestored,
			Node:   self,
			MsgID:  uint64(c.Factor),
			Detail: rfDetail(c.Factor, c.Target),
		})
	}
	m.checked = true
	m.under = c.Under
	m.lastFactor = c.Factor
	m.lastTarget = c.Target
}

func rfDetail(factor, target int) string {
	return fmt.Sprintf("rf=%d/%d", factor, target)
}
