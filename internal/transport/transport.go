// Package transport holds what callers of a transport share with it: the
// delivery Handler type and the sentinel errors. There is no Transport
// interface: internal/transport/udptransport (real sockets) is the one
// implementation and the daemon holds it by its concrete type; the
// simulator drives internal/core over netstack directly, and
// wire.TestSimulatedTrafficRoundTrips puts every message a simulated run
// delivers through the codec.
package transport

import (
	"errors"

	"quorumconf/internal/wire"
)

// Handler consumes envelopes delivered to the local node. Implementations
// invoke it from their own delivery context (udptransport: the socket read
// loop), so handlers must be fast and must not block; hand off to a channel
// for real work.
type Handler func(env *wire.Envelope)

// Sentinel errors shared by implementations. Match them with errors.Is;
// implementations may wrap them with destination detail.
var (
	// ErrUnknownPeer reports a destination with no known address.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrQueueFull reports backpressure: the per-destination send queue
	// is at capacity and the caller declined to wait (no cancellable
	// context).
	ErrQueueFull = errors.New("transport: send queue full")
	// ErrRetriesExhausted reports that a message stayed unacknowledged
	// through its whole retransmission schedule and was dropped.
	// Fire-and-forget Send reports it through trace events and the
	// send_drop counter; udptransport's SendWait returns it directly.
	ErrRetriesExhausted = errors.New("transport: retries exhausted")
)
