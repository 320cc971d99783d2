// Package udptransport carries wire envelopes over real UDP sockets.
//
// UDP gives the same failure model the paper assumes of a radio: datagrams
// are lost, reordered and duplicated. The transport adds the minimum ARQ a
// deployable daemon needs without becoming TCP:
//
//   - per-destination send queues: one worker per peer drains messages in
//     order, so a slow peer cannot stall traffic to the others;
//   - stop-and-wait retransmission, one exchange in flight per peer, so
//     per-(source, destination) FIFO delivery needs no sequence numbers;
//   - positive acknowledgements by message ID, and receive-side
//     deduplication by (source, message ID) so retransmitted datagrams
//     deliver exactly once per endpoint lifetime window (message IDs start
//     at a random offset, so a restarted endpoint does not collide with its
//     previous life in its peers' windows);
//   - counters for every event, recorded into a metrics.SyncCollector and
//     served by quorumd's /v1/metrics endpoint.
//
// Frames on the socket are one byte of kind followed by the body:
//
//	'D' <wire envelope>          data
//	'B' <wire batch frame>       coalesced data (N envelopes, one header)
//	'A' <uvarint message ID>     acknowledgement
//
// # Coalescing
//
// Every exchange carries whatever its destination's queue holds: the worker
// drains what is already waiting — messages pile up during the previous
// exchange's round trip — into one 'B' frame and flushes when the queue runs
// dry; a lone message leaves as a plain 'D' frame. BatchFlushBytes caps a
// batch's payload (default about one MTU; the message that would overflow
// it opens the next exchange) and BatchFlushDelay optionally lingers for
// stragglers. A batch rides the ARQ as a unit, keyed on its first envelope's
// message ID; the receiver acknowledges that ID once and delivers each
// inner envelope through the usual per-envelope dedup, so a retransmitted
// batch cannot double-deliver.
//
// # Retransmission
//
// Each worker keeps a Jacobson/Karels estimate of its peer's ack round trip
// (SRTT, RTTVAR; by Karn's rule only exchanges acknowledged on their first
// transmission are sampled, and a backed-off delay that got an ack stays in
// force until the next sample). The first retransmission fires after
// SRTT + 4·RTTVAR held inside [1ms, RetryBase] — RetryBase itself until
// the first sample — with no jitter, so it never undercuts the estimate;
// every later delay doubles and is stretched by a uniform [1, 1.5]x. Loss
// recovery thus costs about a round trip rather than a tuned constant.
//
// Patience does not shrink with the RTO: a frame is given up only after
// MaxAttempts copies and RetryBase·(2^MaxAttempts − 1) since the first — the
// time MaxAttempts copies spaced from RetryBase take — so a fast path sends
// more copies inside the same horizon instead of dropping sooner. A message
// given up is dropped with a counter bump; the protocol's own timeouts
// recover, exactly as they do over lossy radio.
//
// # Hardening
//
// With Config.AuthKey set, every datagram on the socket — data, batch and
// ack alike — is wrapped in a wire auth frame ('Q','A', HMAC-SHA256, see
// wire.Seal) and inbound datagrams that do not verify are dropped with an
// auth_reject before any ARQ, dedup or handler state is touched. The HMAC
// is keyed once per goroutine that seals or opens — the receive loop and
// each destination's worker own one wire.Auth — not once per datagram. With
// Config.RateLimit set, a per-remote-address token bucket is charged even
// earlier: over-rate datagrams are dropped with a rate_limited before the
// HMAC is even computed, so a flood cannot buy CPU with garbage.
package udptransport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// Handler consumes envelopes delivered to the local node. It runs on the
// socket read loop, so it must be fast and must not block.
type Handler func(env *wire.Envelope)

// Sentinel errors, matched with errors.Is; they may wrap destination detail.
var (
	// ErrUnknownPeer reports a destination with no known address.
	ErrUnknownPeer = errors.New("transport: unknown peer")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("transport: closed")
	// ErrQueueFull reports backpressure: the per-destination send queue
	// is at capacity and the caller declined to wait (no cancellable
	// context).
	ErrQueueFull = errors.New("transport: send queue full")
	// ErrRetriesExhausted reports a message dropped unacknowledged after
	// its whole retransmission schedule (SendWait; Send only counts it).
	ErrRetriesExhausted = errors.New("transport: retries exhausted")
)

// Frame kind bytes.
const (
	frameData  = 'D'
	frameAck   = 'A'
	frameBatch = 'B'
)

// maxBatchBytes caps a batch frame's payload so it stays well inside one
// 64 KiB UDP datagram regardless of BatchFlushBytes.
const maxBatchBytes = 60000

// defaultBatchBytes is the batch payload cap when BatchFlushBytes is unset:
// one Ethernet MTU less IP, UDP, auth and batch header. The cap counts
// envelope bytes, not the length prefix the batch frame puts before each,
// so a default deployment's batches rarely fragment: only one packed with
// dozens of minimal envelopes overshoots the MTU.
const defaultBatchBytes = 1400

// rtoFloor is the least retransmission delay the estimator may arm. On
// loopback the estimate alone is a few hundred microseconds, inside the
// scheduling noise of a fleet sharing two cores: there the ack round trip
// has p50 0.1 ms, p99 0.45 ms and p99.9 1-1.7 ms, and a 0.5 ms floor
// retransmitted 0.3% of all exchanges for nothing. 1 ms sits at the p99.9.
const rtoFloor = time.Millisecond

// Counter names recorded into the collector.
const (
	CtrDataTx    = "transport.data_tx"    // data datagrams written (incl. retransmits)
	CtrRetries   = "transport.retries"    // retransmissions
	CtrAckTx     = "transport.ack_tx"     // acks written
	CtrAckRx     = "transport.ack_rx"     // acks received
	CtrDelivered = "transport.delivered"  // envelopes handed to the handler
	CtrDupDrop   = "transport.dup_drop"   // duplicate data frames suppressed
	CtrSendDrop  = "transport.send_drop"  // messages dropped after max attempts
	CtrDecodeErr = "transport.decode_err" // undecodable frames received
	CtrChaosDrop = "transport.chaos_drop" // outbound frames discarded by DropRate
	CtrBatchTx   = "transport.batch_tx"   // batch frames written (excl. retransmits)
	CtrBatchRx   = "transport.batch_rx"   // batch frames received
	CtrBatched   = "transport.batched"    // envelopes that rode a batch frame out

	CtrAuthReject  = "transport.auth_reject"  // datagrams failing authentication
	CtrRateLimited = "transport.rate_limited" // datagrams dropped by the rate limiter
)

// Config parameterizes a transport endpoint. Zero fields take defaults.
type Config struct {
	// ID is the local node ID stamped into outgoing envelopes.
	ID radio.NodeID
	// Listen is the UDP address to bind ("127.0.0.1:0" for an ephemeral
	// loopback port).
	Listen string
	// Metrics receives the transport counters; nil allocates a private one.
	Metrics *metrics.SyncCollector
	// RetryBase is the first retransmission delay until the peer's round
	// trip has been measured, and the ceiling of the adaptive delay after
	// (default 30ms).
	RetryBase time.Duration
	// MaxAttempts sets the give-up horizon (default 6): a message is
	// dropped once at least this many copies were sent and
	// RetryBase·(2^MaxAttempts − 1) has passed since the first. A peer
	// whose measured round trip is short gets more copies than this
	// inside the horizon.
	MaxAttempts int
	// QueueLen is the per-destination queue capacity (default 512).
	QueueLen int
	// DropRate discards outbound data frames with this probability, in
	// [0, 1) — a chaos knob mirroring the netstack's loss model, for
	// exercising retransmission against real sockets.
	DropRate float64
	// BatchFlushBytes caps the payload of one batch frame: a destination's
	// pending messages share a frame up to this many bytes, and the
	// message that would exceed it opens the next frame. Zero takes the
	// default of about one MTU (1400); values past what one datagram can
	// carry are capped internally.
	BatchFlushBytes int
	// BatchFlushDelay is the optional coalescing linger: after the queue
	// runs dry the worker waits at most this long for more messages
	// before flushing. Zero (the default) flushes as soon as the queue is
	// empty.
	BatchFlushDelay time.Duration
	// AuthKey, when non-empty, turns on frame authentication: every
	// outbound datagram is sealed (wire.Seal, HMAC-SHA256) and inbound
	// datagrams that fail wire.Open are dropped before any transport
	// state is touched. All endpoints of a cluster must share the key.
	AuthKey []byte
	// RateLimit, when positive, enables a per-remote-address token bucket
	// admitting this many datagrams per second; datagrams beyond the
	// budget are dropped before authentication. Zero disables limiting.
	RateLimit float64
	// RateBurst is the bucket depth — how many back-to-back datagrams a
	// remote may burst before the steady rate applies (default
	// max(16, RateLimit)).
	RateBurst int
	// Tracer receives transport_send/retry/drop/dedup events; nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
	// Histograms, when set, records the batch-occupancy distribution
	// (obs.HistBatchOccupancy): how many envelopes each transmitted batch
	// frame coalesced, and the ack round trips the retransmission delay is
	// derived from (obs.HistTransportRTT). Nil records nothing at zero
	// cost.
	Histograms *obs.Histograms
}

func (c *Config) setDefaults() {
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewSync()
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 30 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 6
	}
	if c.BatchFlushBytes <= 0 {
		c.BatchFlushBytes = defaultBatchBytes
	}
	if c.BatchFlushBytes > maxBatchBytes {
		c.BatchFlushBytes = maxBatchBytes
	}
	if c.QueueLen == 0 {
		c.QueueLen = 512
	}
	if c.RateLimit > 0 && c.RateBurst == 0 {
		c.RateBurst = 16
		if int(c.RateLimit) > c.RateBurst {
			c.RateBurst = int(c.RateLimit)
		}
	}
}

// dedupCap bounds the (source, message ID) suppression window.
const dedupCap = 8192

type dedupKey struct {
	src radio.NodeID
	id  uint64
}

// outgoing is one queued message. result is nil for fire-and-forget Send;
// SendWait threads a buffered channel through it to learn the message's
// fate (nil, ErrRetriesExhausted, ErrUnknownPeer or ErrClosed).
type outgoing struct {
	frame  []byte
	msgID  uint64
	result chan error
}

// Transport is one UDP endpoint. Safe for concurrent use.
type Transport struct {
	cfg  Config
	conn *net.UDPConn

	mu       sync.Mutex
	handler  Handler
	peers    map[radio.NodeID]*net.UDPAddr
	queues   map[radio.NodeID]chan outgoing
	acks     map[uint64]chan struct{}
	seen     map[dedupKey]struct{}
	seenRing []dedupKey
	seenPos  int
	closed   bool

	msgSeq atomic.Uint64
	done   chan struct{}
	wg     sync.WaitGroup
}

// New binds the socket and starts the receive loop.
func New(cfg Config) (*Transport, error) {
	if cfg.DropRate < 0 || cfg.DropRate >= 1 {
		return nil, fmt.Errorf("udptransport: %w: drop rate %v", netstack.ErrLossRateRange, cfg.DropRate)
	}
	if cfg.RateLimit < 0 {
		return nil, fmt.Errorf("udptransport: rate limit %v must not be negative", cfg.RateLimit)
	}
	cfg.setDefaults()
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("udptransport: %w", err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: %w", err)
	}
	t := &Transport{
		cfg:    cfg,
		conn:   conn,
		peers:  make(map[radio.NodeID]*net.UDPAddr),
		queues: make(map[radio.NodeID]chan outgoing),
		acks:   make(map[uint64]chan struct{}),
		seen:   make(map[dedupKey]struct{}),
		done:   make(chan struct{}),
	}
	// Message IDs start at a random offset: peers remember (source, ID)
	// pairs across this endpoint's lifetime, so a node restarted under its
	// old ID counting from zero again would be acknowledged and then
	// discarded as its own duplicate.
	t.msgSeq.Store(uint64(rand.Uint32()))
	t.wg.Add(1)
	go t.readLoop()
	return t, nil
}

// LocalAddr returns the bound UDP address (useful with ephemeral ports).
func (t *Transport) LocalAddr() *net.UDPAddr { return t.conn.LocalAddr().(*net.UDPAddr) }

// Metrics returns the collector the transport records into.
func (t *Transport) Metrics() *metrics.SyncCollector { return t.cfg.Metrics }

// SetHandler installs the delivery callback. Must be called before traffic
// is expected; a nil handler drops deliveries.
func (t *Transport) SetHandler(h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handler = h
}

// AddPeer registers (or updates) the socket address for a node ID.
func (t *Transport) AddPeer(id radio.NodeID, addr string) error {
	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udptransport: peer %d: %w", id, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	t.peers[id] = uaddr
	return nil
}

// Send stamps env (Src always, MsgID when zero), encodes and enqueues it.
// An error means the message was definitely not sent; nil means it was
// queued, not that it will arrive. When the destination queue is full, a
// caller with a cancellable context blocks for space until the context is
// done; context.Background() (no Done channel) gets immediate ErrQueueFull
// backpressure instead, so the daemon's event loop can never wedge on a
// slow peer.
func (t *Transport) Send(ctx context.Context, env *wire.Envelope) error {
	return t.send(ctx, env, nil)
}

// SendWait is Send that also waits for the message's fate: it returns nil
// once the peer acknowledged the message, ErrRetriesExhausted if it was
// given up unacknowledged (see Config.MaxAttempts), or the context
// error if ctx expires first (the transmission keeps running in that
// case — UDP has no unsend).
func (t *Transport) SendWait(ctx context.Context, env *wire.Envelope) error {
	result := make(chan error, 1)
	if err := t.send(ctx, env, result); err != nil {
		return err
	}
	select {
	case err := <-result:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-t.done:
		return ErrClosed
	}
}

func (t *Transport) send(ctx context.Context, env *wire.Envelope, result chan error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	env.Src = t.cfg.ID
	if env.MsgID == 0 {
		env.MsgID = t.msgSeq.Add(1)
	}
	if env.Hops == 0 {
		env.Hops = 1 // one socket hop; real deployments would count routes
	}
	frame := make([]byte, 1, 64)
	frame[0] = frameData
	frame, err := wire.AppendEncode(frame, env)
	if err != nil {
		return fmt.Errorf("udptransport: %w", err)
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if _, ok := t.peers[env.Dst]; !ok {
		t.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownPeer, env.Dst)
	}
	q, ok := t.queues[env.Dst]
	if !ok {
		q = make(chan outgoing, t.cfg.QueueLen)
		t.queues[env.Dst] = q
		t.wg.Add(1)
		go t.sendLoop(env.Dst, q)
	}
	t.mu.Unlock()

	out := outgoing{frame: frame, msgID: env.MsgID, result: result}
	select {
	case q <- out:
		t.trace(obs.EvTransportSend, env.Dst, env.MsgID, env.Type)
		return nil
	default:
	}
	if ctx.Done() == nil {
		t.cfg.Metrics.Inc(CtrSendDrop)
		t.trace(obs.EvTransportDrop, env.Dst, env.MsgID, "queue_full")
		return fmt.Errorf("%w: to %d", ErrQueueFull, env.Dst)
	}
	select {
	case q <- out:
		t.trace(obs.EvTransportSend, env.Dst, env.MsgID, env.Type)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.done:
		return ErrClosed
	}
}

// Close stops the workers, closes the socket, and waits for the workers to
// exit — up to ctx, after which Close returns the context error while
// teardown finishes in the background.
func (t *Transport) Close(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	t.mu.Unlock()
	err := t.conn.Close()
	idle := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// trace emits a transport event when a tracer is configured.
func (t *Transport) trace(kind obs.EventKind, peer radio.NodeID, msgID uint64, detail string) {
	t.cfg.Tracer.Emit(obs.Event{
		Kind:   kind,
		Node:   t.cfg.ID,
		Peer:   peer,
		MsgID:  msgID,
		Detail: detail,
	})
}

// rttEstimator is one destination's Jacobson/Karels round-trip estimate,
// owned by that destination's worker goroutine.
type rttEstimator struct {
	srtt, rttvar time.Duration
	sampled      bool
	// backed is the backed-off delay that finally got the last exchange
	// acknowledged, kept in force until the next sample (Karn): when the
	// path turns slower than the estimate no exchange yields a sample, and
	// without it every message would be retransmitted from the stale RTO.
	backed time.Duration
}

// sample folds in the round trip of an exchange acknowledged on its first
// transmission. Karn's rule: an ack that follows a retransmission cannot be
// matched to the copy it answers, so such an exchange sets backed instead.
func (e *rttEstimator) sample(rtt time.Duration) {
	e.backed = 0
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = rtt, rtt/2, true
		return
	}
	dev := e.srtt - rtt
	if dev < 0 {
		dev = -dev
	}
	e.rttvar += (dev - e.rttvar) / 4
	e.srtt += (rtt - e.srtt) / 8
}

// rto is the delay before the first retransmission: SRTT + 4·RTTVAR, or
// the retained back-off if larger, held inside [rtoFloor, ceil]; ceil
// itself until the first sample.
func (e *rttEstimator) rto(ceil time.Duration) time.Duration {
	if !e.sampled {
		return ceil
	}
	rto := e.srtt + 4*e.rttvar
	if rto < e.backed {
		rto = e.backed
	}
	if rto < rtoFloor {
		rto = rtoFloor
	}
	if rto > ceil {
		rto = ceil
	}
	return rto
}

// worker is one destination's sender state, touched only by its sendLoop
// goroutine.
type worker struct {
	t       *Transport
	dst     radio.NodeID
	q       chan outgoing
	auth    *wire.Auth // nil: authentication off
	timer   *time.Timer
	est     rttEstimator
	rttHist *obs.Histogram // obs.HistTransportRTT
	occHist *obs.Histogram // obs.HistBatchOccupancy
	// carry is the message that would have pushed the previous batch past
	// the byte cap; it opens the next one. Its frame is nil when there is
	// none.
	carry outgoing
}

// sendLoop drains one destination's queue, one stop-and-wait exchange at a
// time. Each exchange carries whatever the queue holds — messages pile up
// naturally during the previous exchange's round trip — so a busy peer gets
// batch frames and an idle one plain data frames from the same code.
func (t *Transport) sendLoop(dst radio.NodeID, q chan outgoing) {
	defer t.wg.Done()
	w := worker{t: t, dst: dst, q: q, auth: t.newAuth(), timer: time.NewTimer(0),
		rttHist: t.cfg.Histograms.Get(obs.HistTransportRTT, 1e-9),
		occHist: t.cfg.Histograms.Get(obs.HistBatchOccupancy, 1)}
	w.stopTimer()
	for {
		first := w.carry
		w.carry = outgoing{}
		if first.frame == nil {
			select {
			case <-t.done:
				return
			case first = <-q:
			}
		}
		w.exchange(w.collect(first))
	}
}

func (w *worker) stopTimer() {
	if !w.timer.Stop() {
		<-w.timer.C
	}
}

// collect gathers the messages of one exchange: first, everything already
// queued, then — when a flush delay is configured — stragglers until the
// deadline. The message that would take the payload past BatchFlushBytes
// is carried over to open the next exchange, so a frame exceeds the cap
// only when a single message does.
func (w *worker) collect(first outgoing) []outgoing {
	cfg := &w.t.cfg
	batch := []outgoing{first}
	size := len(first.frame) - 1
	lingering := false
	for len(batch) < wire.MaxBatch && size < cfg.BatchFlushBytes {
		var out outgoing
		select {
		case out = <-w.q:
		default:
			if cfg.BatchFlushDelay <= 0 {
				return batch
			}
			if !lingering {
				lingering = true
				w.timer.Reset(cfg.BatchFlushDelay)
			}
			select {
			case out = <-w.q:
			case <-w.timer.C:
				return batch
			case <-w.t.done:
				w.stopTimer()
				return batch
			}
		}
		if size += len(out.frame) - 1; size > cfg.BatchFlushBytes {
			w.carry = out
			break
		}
		batch = append(batch, out)
	}
	if lingering {
		w.stopTimer()
	}
	return batch
}

// exchange sends one collected batch through the ARQ cycle as a unit and
// hands every member its fate: a lone message leaves as its own 'D' frame,
// several as one 'B' frame acknowledged once by the first envelope's
// message ID.
func (w *worker) exchange(batch []outgoing) {
	t := w.t
	frame, msgID := batch[0].frame, batch[0].msgID
	var err error
	if len(batch) > 1 {
		frames := make([][]byte, len(batch))
		for i, out := range batch {
			frames[i] = out.frame[1:]
		}
		if frame, err = wire.AppendBatchRaw([]byte{frameBatch}, frames); err != nil {
			// Cannot happen for frames we encoded ourselves; fail the members
			// rather than wedge the worker.
			t.cfg.Metrics.Inc(CtrSendDrop)
		} else {
			t.cfg.Metrics.Inc(CtrBatchTx)
			t.cfg.Metrics.Add(CtrBatched, int64(len(batch)))
			w.occHist.Observe(int64(len(batch)))
			if t.cfg.Tracer.Enabled() {
				t.trace(obs.EvFrameBatched, w.dst, msgID, fmt.Sprintf("n=%d", len(batch)))
			}
		}
	}
	if err == nil {
		err = w.transmit(frame, msgID)
	}
	for _, out := range batch {
		if out.result != nil {
			out.result <- err // buffered; never blocks the worker
		}
	}
}

// transmit runs the transmit/back-off cycle for one frame and reports its
// fate: nil once acknowledged, ErrRetriesExhausted when given up,
// ErrUnknownPeer if the peer was removed while queued, ErrClosed if the
// transport shut down first.
//
// The first retransmission fires after the destination's adaptive RTO,
// unjittered so it never undercuts the estimate; every later delay doubles
// and is stretched — never shortened — by up to half. The frame is given up
// only once MaxAttempts copies were sent and RetryBase·(2^MaxAttempts − 1)
// has passed since the first: the time MaxAttempts copies spaced from
// RetryBase take. A short RTO therefore buys earlier recovery, not less
// patience — a peer that stalls gets more copies inside the same horizon.
func (w *worker) transmit(frame []byte, msgID uint64) error {
	t := w.t
	// Seal once at the socket boundary: the MAC is deterministic, so every
	// retransmission reuses the same sealed bytes, and frames stay
	// plaintext while queued (batch composition slices them apart).
	datagram := seal(w.auth, frame)
	ackCh := make(chan struct{}, 1)
	t.mu.Lock()
	t.acks[msgID] = ackCh
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.acks, msgID)
		t.mu.Unlock()
	}()

	rto := w.est.rto(t.cfg.RetryBase)
	horizon := t.cfg.RetryBase<<t.cfg.MaxAttempts - t.cfg.RetryBase
	first := time.Now()
	for attempt, backoff := 0, rto; ; attempt, backoff = attempt+1, 2*backoff {
		t.mu.Lock()
		addr := t.peers[w.dst] // per attempt: AddPeer may have re-pointed the peer
		t.mu.Unlock()
		wait := backoff
		if attempt > 0 {
			t.cfg.Metrics.Inc(CtrRetries)
			t.trace(obs.EvTransportRetry, w.dst, msgID, "")
			wait += time.Duration(rand.Int63n(int64(backoff)/2 + 1))
		}
		t.cfg.Metrics.Inc(CtrDataTx)
		if t.cfg.DropRate > 0 && rand.Float64() < t.cfg.DropRate {
			t.cfg.Metrics.Inc(CtrChaosDrop)
		} else if _, err := t.conn.WriteToUDP(datagram, addr); err != nil {
			select {
			case <-t.done:
				return ErrClosed
			default:
			}
		}

		// The last wait ends at the horizon, but still gives its copy one
		// RTO to be acknowledged.
		if left := horizon - time.Since(first); wait > left {
			wait = max(left, rto)
		}
		w.timer.Reset(wait)
		select {
		case <-ackCh:
			w.stopTimer()
			if attempt == 0 {
				rtt := time.Since(first)
				w.est.sample(rtt)
				w.rttHist.Observe(int64(rtt))
			} else {
				w.est.backed = backoff
			}
			return nil
		case <-t.done:
			w.stopTimer()
			return ErrClosed
		case <-w.timer.C:
		}
		if attempt+1 >= t.cfg.MaxAttempts && time.Since(first) >= horizon {
			// Greet a peer this silent like a fresh one: from RetryBase.
			w.est.backed = t.cfg.RetryBase
			t.cfg.Metrics.Inc(CtrSendDrop)
			t.trace(obs.EvTransportDrop, w.dst, msgID, "retries_exhausted")
			return fmt.Errorf("%w: to %d after %d attempts", ErrRetriesExhausted, w.dst, attempt+1)
		}
	}
}

// maxBuckets bounds the rate limiter's per-remote state so an attacker
// cycling source ports cannot grow it without bound.
const maxBuckets = 4096

// bucket is one remote address's token-bucket state. The limiter is owned
// by the single readLoop goroutine, so no locking is needed.
type bucket struct {
	tokens float64
	last   time.Time
}

// admit charges one datagram from raddr against its bucket and reports
// whether it may pass. Limiting disabled admits everything.
func (t *Transport) admit(buckets map[string]*bucket, raddr *net.UDPAddr) bool {
	if t.cfg.RateLimit <= 0 {
		return true
	}
	now := time.Now()
	key := raddr.String()
	b, ok := buckets[key]
	if !ok {
		if len(buckets) >= maxBuckets {
			// Prune remotes whose buckets have fully refilled — they have
			// been idle at least RateBurst/RateLimit seconds.
			refill := time.Duration(float64(t.cfg.RateBurst) / t.cfg.RateLimit * float64(time.Second))
			for k, old := range buckets {
				if now.Sub(old.last) >= refill {
					delete(buckets, k)
				}
			}
			if len(buckets) >= maxBuckets {
				// Table still full of active remotes: refuse the newcomer
				// rather than evict someone who is behaving.
				return false
			}
		}
		b = &bucket{tokens: float64(t.cfg.RateBurst), last: now}
		buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * t.cfg.RateLimit
	if max := float64(t.cfg.RateBurst); b.tokens > max {
		b.tokens = max
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// readLoop receives datagrams until the socket closes. Hostile input is
// shed in order of increasing cost: the rate limiter first (a map lookup),
// then authentication (one HMAC), and only then frame decoding and ARQ
// state.
func (t *Transport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, 64*1024)
	buckets := make(map[string]*bucket)
	auth := t.newAuth() // opens inbound datagrams and seals their acks
	for {
		n, raddr, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient error on a live socket: keep reading.
			continue
		}
		if n < 1 {
			continue
		}
		if !t.admit(buckets, raddr) {
			t.cfg.Metrics.Inc(CtrRateLimited)
			t.trace(obs.EvRateLimited, 0, 0, raddr.String())
			continue
		}
		frame := buf[:n]
		if auth != nil {
			inner, err := auth.Open(frame)
			if err != nil {
				t.cfg.Metrics.Inc(CtrAuthReject)
				t.trace(obs.EvAuthReject, 0, 0, raddr.String())
				continue
			}
			frame = inner
			if len(frame) < 1 {
				t.cfg.Metrics.Inc(CtrDecodeErr)
				continue
			}
		}
		switch frame[0] {
		case frameAck:
			t.handleAck(frame[1:])
		case frameData:
			t.handleData(frame[1:], raddr, auth)
		case frameBatch:
			t.handleBatch(frame[1:], raddr, auth)
		default:
			t.cfg.Metrics.Inc(CtrDecodeErr)
		}
	}
}

func (t *Transport) handleAck(body []byte) {
	msgID, n := binary.Uvarint(body)
	if n <= 0 {
		t.cfg.Metrics.Inc(CtrDecodeErr)
		return
	}
	t.cfg.Metrics.Inc(CtrAckRx)
	t.mu.Lock()
	ch, ok := t.acks[msgID]
	t.mu.Unlock()
	if ok {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

func (t *Transport) handleData(body []byte, raddr *net.UDPAddr, auth *wire.Auth) {
	env, err := wire.Decode(body)
	if err != nil {
		t.cfg.Metrics.Inc(CtrDecodeErr)
		return
	}

	// Ack every valid data frame, duplicates included — the retransmit
	// means the sender missed the previous ack.
	t.sendAck(env.MsgID, raddr, auth)
	t.deliver(env)
}

// handleBatch unbundles a coalesced frame: one ack for the whole batch
// (keyed on its first envelope, mirroring the sender's ARQ), then each
// inner envelope through the usual per-envelope dedup and delivery.
func (t *Transport) handleBatch(body []byte, raddr *net.UDPAddr, auth *wire.Auth) {
	envs, err := wire.DecodeBatch(body)
	if err != nil {
		t.cfg.Metrics.Inc(CtrDecodeErr)
		return
	}
	t.cfg.Metrics.Inc(CtrBatchRx)
	t.sendAck(envs[0].MsgID, raddr, auth)
	for _, env := range envs {
		t.deliver(env)
	}
}

func (t *Transport) sendAck(msgID uint64, raddr *net.UDPAddr, auth *wire.Auth) {
	ack := seal(auth, binary.AppendUvarint([]byte{frameAck}, msgID))
	if _, err := t.conn.WriteToUDP(ack, raddr); err == nil {
		t.cfg.Metrics.Inc(CtrAckTx)
	}
}

// newAuth keys a sealer for one goroutine; nil when authentication is off.
func (t *Transport) newAuth() *wire.Auth {
	if len(t.cfg.AuthKey) == 0 {
		return nil
	}
	auth, _ := wire.NewAuth(t.cfg.AuthKey) // fails only on an empty key
	return auth
}

// seal wraps a socket frame in an auth frame under the calling goroutine's
// auth; with authentication off (nil) it returns the frame unchanged.
func seal(auth *wire.Auth, frame []byte) []byte {
	if auth == nil {
		return frame
	}
	return auth.AppendSeal(make([]byte, 0, wire.AuthOverhead+len(frame)), frame)
}

// deliver runs the dedup window and hands a received envelope to the
// handler.
func (t *Transport) deliver(env *wire.Envelope) {
	key := dedupKey{src: env.Src, id: env.MsgID}
	t.mu.Lock()
	if _, dup := t.seen[key]; dup {
		t.mu.Unlock()
		t.cfg.Metrics.Inc(CtrDupDrop)
		t.trace(obs.EvTransportDedup, env.Src, env.MsgID, "")
		return
	}
	if len(t.seenRing) < dedupCap {
		t.seenRing = append(t.seenRing, key)
	} else {
		delete(t.seen, t.seenRing[t.seenPos])
		t.seenRing[t.seenPos] = key
		t.seenPos = (t.seenPos + 1) % dedupCap
	}
	t.seen[key] = struct{}{}
	h := t.handler
	t.mu.Unlock()

	t.cfg.Metrics.Inc(CtrDelivered)
	t.cfg.Metrics.AddTraffic(env.Category, env.Hops)
	if h != nil {
		h(env)
	}
}
