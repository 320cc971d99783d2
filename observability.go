package quorumconf

// This file re-exports the observability surface: the structured event
// tracer (internal/obs) and its sinks; RuntimeConfig.Tracer attaches one to
// a runtime. See DESIGN.md Appendix C for the event schema and its
// stability guarantees.

import (
	"io"

	"quorumconf/internal/obs"
)

// Structured tracing.
type (
	// Tracer stamps and fans protocol events out to sinks. A nil *Tracer
	// is a valid no-op tracer.
	Tracer = obs.Tracer
	// TracerEvent is one observed protocol transition.
	TracerEvent = obs.Event
	// EventKind identifies what a TracerEvent records.
	EventKind = obs.EventKind
	// TraceSink receives every emitted event.
	TraceSink = obs.Sink
	// TraceRing is a bounded in-memory sink of recent events.
	TraceRing = obs.Ring
	// TraceClock supplies event timestamps.
	TraceClock = obs.Clock
)

// Event kinds (append-only; see DESIGN.md Appendix C).
const (
	EvNodeArrived     = obs.EvNodeArrived
	EvNodeConfigured  = obs.EvNodeConfigured
	EvNodeDeparted    = obs.EvNodeDeparted
	EvHeadElected     = obs.EvHeadElected
	EvHeadResigned    = obs.EvHeadResigned
	EvBallotOpen      = obs.EvBallotOpen
	EvBallotVote      = obs.EvBallotVote
	EvBallotCommit    = obs.EvBallotCommit
	EvBallotAbort     = obs.EvBallotAbort
	EvReplicaSync     = obs.EvReplicaSync
	EvReplicaAdopt    = obs.EvReplicaAdopt
	EvPeerSuspect     = obs.EvPeerSuspect
	EvPeerDead        = obs.EvPeerDead
	EvReclaimStart    = obs.EvReclaimStart
	EvReclaimDefend   = obs.EvReclaimDefend
	EvReclaimFree     = obs.EvReclaimFree
	EvQuorumShrink    = obs.EvQuorumShrink
	EvQuorumProbe     = obs.EvQuorumProbe
	EvQuorumRecruit   = obs.EvQuorumRecruit
	EvPartitionMerge  = obs.EvPartitionMerge
	EvIsolatedRestart = obs.EvIsolatedRestart
	EvTransportSend   = obs.EvTransportSend
	EvTransportRetry  = obs.EvTransportRetry
	EvTransportDrop   = obs.EvTransportDrop
	EvTransportDedup  = obs.EvTransportDedup
	EvDaemonStart     = obs.EvDaemonStart
	EvDaemonStop      = obs.EvDaemonStop
)

// NewTracer returns a tracer writing to sinks. A nil clock timestamps
// events with wall time since tracer creation; a runtime handed the tracer
// in RuntimeConfig.Tracer stamps virtual time instead.
func NewTracer(clock TraceClock, sinks ...TraceSink) *Tracer {
	return obs.NewTracer(clock, sinks...)
}

// NewTraceRing returns a bounded sink keeping the last capacity events.
func NewTraceRing(capacity int) *TraceRing { return obs.NewRing(capacity) }

// NewJSONLWriter returns a sink streaming events as JSON lines to w.
func NewJSONLWriter(w io.Writer) *obs.JSONLWriter { return obs.NewJSONLWriter(w) }
