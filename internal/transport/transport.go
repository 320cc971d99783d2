// Package transport abstracts how protocol nodes exchange wire envelopes.
//
// Transport is the narrow surface the daemon is written against: send an
// envelope to a peer, receive envelopes through a handler. The one
// implementation is internal/transport/udptransport (real sockets); the
// simulator drives internal/core over netstack directly, and
// wire.TestSimulatedTrafficRoundTrips puts every message a simulated run
// delivers through the codec.
package transport

import (
	"context"
	"errors"

	"quorumconf/internal/radio"
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

// Transport moves wire envelopes between protocol nodes. Implementations
// fill env.Src with the local node ID and assign env.MsgID when zero.
// Delivery is best-effort: an error means the message was definitely not
// sent; a nil return means it was handed to the fabric (which may still
// lose it — the protocol's own timers handle that, exactly as over radio).
type Transport interface {
	// LocalID returns the node this transport endpoint belongs to.
	LocalID() radio.NodeID
	// Send queues env for delivery to env.Dst. The context bounds the
	// hand-off to the fabric, not delivery: a caller holding a
	// cancellable context waits for queue space until ctx is done, while
	// context.Background() gets immediate ErrQueueFull backpressure.
	Send(ctx context.Context, env *wire.Envelope) error
	// SetHandler installs the delivery callback. Must be called before
	// traffic is expected; a nil handler drops deliveries.
	SetHandler(h Handler)
	// Close releases sockets/handlers and waits for internal workers to
	// drain, up to ctx. Further Sends return ErrClosed.
	Close(ctx context.Context) error
}
