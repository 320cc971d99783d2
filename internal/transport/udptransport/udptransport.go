// Package udptransport carries wire envelopes over real UDP sockets.
//
// UDP gives the same failure model the paper assumes of a radio: datagrams
// are lost, reordered and duplicated. The transport adds the minimum ARQ a
// deployable daemon needs without becoming TCP:
//
//   - per-destination senders: each peer's messages queue on their own
//     sender, so a slow peer cannot stall traffic to the others;
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
// # The sender
//
// Each destination's ARQ is an explicit state machine, a sender record
// under its own mutex: the queue, the exchange in flight (its members, the
// first message ID, the sealed datagram, the attempt, the back-off and the
// first-send time), the round-trip estimator and one reusable timer. Three
// transitions move it:
//
//   - start runs on the destination's goroutine, which does nothing else.
//     It drains the queue into one exchange, builds and seals the frame
//     outside the lock, arms the timer and writes the first copy. Send
//     wakes the goroutine only when the destination is idle.
//   - ack runs on the socket read loop. It stops the timer, samples the
//     round trip, hands every member its fate and wakes the goroutine only
//     if messages queued meanwhile, so an ack that ends a burst wakes
//     nobody.
//   - expire is the timer's callback. It sends another copy or gives the
//     exchange up, and ignores a stale fire by checking the deadline it
//     armed.
//
// # Coalescing
//
// Every exchange carries whatever its destination's queue holds: start
// drains what is already waiting — messages pile up during the previous
// exchange's round trip, and while the goroutine is being scheduled — into
// one 'B' frame; a lone message leaves as a plain 'D' frame. That wake-up
// lag is what lets a burst share a frame. BatchFlushBytes caps a batch's
// payload (default about one MTU; the message that would overflow it opens
// the next exchange). A batch rides the ARQ as a unit, keyed on its first
// envelope's message ID; the receiver acknowledges that ID once and
// delivers each inner envelope through the usual per-envelope dedup, so a
// retransmitted batch cannot double-deliver.
//
// # Retransmission
//
// Each sender keeps a Jacobson/Karels estimate of its peer's ack round trip
// (SRTT, RTTVAR; by Karn's rule only exchanges acknowledged on their first
// transmission are sampled, and a backed-off delay that got an ack stays in
// force until the next sample). The first retransmission fires after
// SRTT + 4·RTTVAR held inside [1ms, RetryBase] — RetryBase itself until
// the first sample — with no jitter, so it never undercuts the estimate;
// every later delay doubles and is stretched by a uniform [1, 1.5]x. Loss
// recovery thus costs about a round trip rather than a tuned constant.
//
// Patience does not shrink with the RTO: a frame is given up only after
// maxAttempts copies and RetryBase·(2^maxAttempts − 1) since the first — the
// time maxAttempts copies spaced from RetryBase take — so a fast path sends
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
// each destination's goroutine own one wire.Auth — not once per datagram;
// a retransmission resends the sealed bytes. With Config.RateLimit set, a
// per-remote-address token bucket is charged even earlier: over-rate
// datagrams are dropped with a rate_limited before the HMAC is even
// computed, so a flood cannot buy CPU with garbage.
package udptransport

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
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

// maxAttempts sets the give-up horizon: a message is dropped once at least
// this many copies were sent and RetryBase·(2^maxAttempts − 1) has passed
// since the first. A peer whose measured round trip is short gets more
// copies than this inside the horizon.
const maxAttempts = 6

// queueLen is the per-destination queue capacity.
const queueLen = 512

// rateBurst is the rate limiter's bucket depth for a limit of limit
// datagrams per second: how many back-to-back datagrams a remote may burst
// before the steady rate applies.
func rateBurst(limit float64) int { return max(16, int(limit)) }

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
	// (default 30ms). It also scales the give-up horizon.
	RetryBase time.Duration
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
	// AuthKey, when non-empty, turns on frame authentication: every
	// outbound datagram is sealed (wire.Seal, HMAC-SHA256) and inbound
	// datagrams that fail wire.Open are dropped before any transport
	// state is touched. All endpoints of a cluster must share the key.
	AuthKey []byte
	// RateLimit, when positive, enables a per-remote-address token bucket
	// admitting this many datagrams per second, max(16, RateLimit) deep;
	// datagrams beyond the budget are dropped before authentication. Zero
	// disables limiting.
	RateLimit float64
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
	if c.BatchFlushBytes <= 0 {
		c.BatchFlushBytes = defaultBatchBytes
	}
	if c.BatchFlushBytes > maxBatchBytes {
		c.BatchFlushBytes = maxBatchBytes
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

	handler atomic.Pointer[Handler]

	mu       sync.Mutex
	peers    map[radio.NodeID]netip.AddrPort
	senders  map[radio.NodeID]*sender
	inflight map[uint64]*sender // each sender's latest exchange, by its ack key
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
		cfg:      cfg,
		conn:     conn,
		peers:    make(map[radio.NodeID]netip.AddrPort),
		senders:  make(map[radio.NodeID]*sender),
		inflight: make(map[uint64]*sender),
		done:     make(chan struct{}),
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
func (t *Transport) SetHandler(h Handler) { t.handler.Store(&h) }

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
	t.peers[id] = socketAddr(uaddr)
	return nil
}

// socketAddr is uaddr as the socket's AddrPort calls take it: an IPv4
// address unmapped, which an IPv4 socket requires, and a missing IP as the
// unspecified IPv4 address, the local host, as WriteToUDP reads a nil IP.
func socketAddr(uaddr *net.UDPAddr) netip.AddrPort {
	ap := uaddr.AddrPort()
	ip := ap.Addr().Unmap()
	if !ip.IsValid() {
		ip = netip.IPv4Unspecified()
	}
	return netip.AddrPortFrom(ip, ap.Port())
}

// peerAddr returns dst's current socket address.
func (t *Transport) peerAddr(dst radio.NodeID) netip.AddrPort {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[dst]
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
// given up unacknowledged (see Config.RetryBase), or the context
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
	s, ok := t.senders[env.Dst]
	if !ok {
		s = t.newSender(env.Dst)
		t.senders[env.Dst] = s
		t.wg.Add(1)
		go s.run()
	}
	t.mu.Unlock()

	switch err := s.enqueue(ctx, outgoing{frame: frame, msgID: env.MsgID, result: result}); err {
	case nil:
		t.trace(obs.EvTransportSend, env.Dst, env.MsgID, env.Type)
		return nil
	case ErrQueueFull:
		t.cfg.Metrics.Inc(CtrSendDrop)
		t.trace(obs.EvTransportDrop, env.Dst, env.MsgID, "queue_full")
		return fmt.Errorf("%w: to %d", ErrQueueFull, env.Dst)
	default:
		return err
	}
}

// Close stops the senders, closes the socket, and waits for the
// destinations' goroutines and the read loop to exit — up to ctx, after
// which Close returns the context error while teardown finishes in the
// background.
func (t *Transport) Close(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.done)
	for _, s := range t.senders {
		s.signal()
	}
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

// isClosed reports whether Close has been called.
func (t *Transport) isClosed() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// horizon is how long after its first copy an exchange may be given up:
// the time maxAttempts copies spaced from RetryBase take.
func (t *Transport) horizon() time.Duration {
	return t.cfg.RetryBase<<maxAttempts - t.cfg.RetryBase
}

// rttEstimator is one destination's Jacobson/Karels round-trip estimate,
// guarded by its sender's mutex.
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

// sender is one destination's stop-and-wait ARQ as an explicit state
// machine. Its transitions — start on run's goroutine, ack on the read
// loop, expire on the timer's callback — each hold mu while they touch the
// fields below it.
type sender struct {
	t       *Transport
	dst     radio.NodeID
	wake    chan struct{} // holds run's one pending wake-up: start an exchange
	timer   *time.Timer   // runs expire
	rttHist *obs.Histogram
	occHist *obs.Histogram

	// Owned by run's goroutine.
	auth   *wire.Auth // nil: authentication off
	batch  []outgoing // the members being collected; the exchange's once started
	frames [][]byte   // scratch for a batch frame's envelopes
	lastID uint64     // the ack key start last registered in Transport.inflight

	mu    sync.Mutex
	queue []outgoing
	// space is closed when messages leave a full queue; nil while no
	// blocked Send waits on it.
	space chan struct{}
	// busy holds from the wake-up that starts an exchange until that
	// exchange ends with the queue empty; Send wakes run only when it is
	// clear.
	busy bool

	// The exchange in flight; members is nil when there is none.
	members  []outgoing
	firstID  uint64        // the ack key: the first member's message ID
	datagram []byte        // the sealed frame every copy resends
	attempt  int           // copies sent before the latest one
	backoff  time.Duration // the latest copy's wait before jitter
	rto      time.Duration // the first copy's wait, the least the last one gets
	first    time.Time     // when the first copy left
	deadline time.Time     // when the armed timer fires; an earlier fire is stale
	est      rttEstimator
}

func (t *Transport) newSender(dst radio.NodeID) *sender {
	s := &sender{t: t, dst: dst, wake: make(chan struct{}, 1), auth: t.newAuth(),
		rttHist: t.cfg.Histograms.Get(obs.HistTransportRTT, 1e-9),
		occHist: t.cfg.Histograms.Get(obs.HistBatchOccupancy, 1)}
	s.timer = time.AfterFunc(time.Hour, s.expire)
	s.timer.Stop()
	return s
}

// signal leaves run a wake-up unless one is pending.
func (s *sender) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// enqueue appends out to the queue, waking run if the destination is idle.
// On a full queue it returns ErrQueueFull for a context that cannot be
// cancelled, and otherwise waits for space until ctx is done.
func (s *sender) enqueue(ctx context.Context, out outgoing) error {
	for {
		s.mu.Lock()
		if len(s.queue) < queueLen {
			s.queue = append(s.queue, out)
			if !s.busy {
				s.busy = true
				s.signal()
			}
			s.mu.Unlock()
			return nil
		}
		if ctx.Done() == nil {
			s.mu.Unlock()
			return ErrQueueFull
		}
		if s.space == nil {
			s.space = make(chan struct{})
		}
		space := s.space
		s.mu.Unlock()
		select {
		case <-space:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.t.done:
			return ErrClosed
		}
	}
}

// run is the destination's goroutine: each wake-up starts one exchange.
// Close wakes it too, and it then fails the exchange in flight and exits.
func (s *sender) run() {
	defer s.t.wg.Done()
	for range s.wake {
		if s.t.isClosed() {
			s.close()
			return
		}
		if s.collect() {
			s.start()
		}
	}
}

// collect moves the next exchange's members off the queue into s.batch, in
// order, until it holds wire.MaxBatch messages or BatchFlushBytes of
// payload. The message that would take it past the cap stays queued and
// opens the next exchange, so a frame exceeds the cap only when one message
// does. It reports false, leaving the sender idle, when the queue was
// empty.
func (s *sender) collect() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.batch)
	s.batch = s.batch[:0]
	if len(s.queue) == 0 {
		s.busy = false
		return false
	}
	limit := s.t.cfg.BatchFlushBytes
	size, n := 0, 0
	for ; n < len(s.queue); n++ {
		next := len(s.queue[n].frame) - 1
		if len(s.batch) == wire.MaxBatch || size >= limit || (len(s.batch) > 0 && size+next > limit) {
			break
		}
		s.batch = append(s.batch, s.queue[n])
		size += next
	}
	rest := copy(s.queue, s.queue[n:])
	clear(s.queue[rest:])
	s.queue = s.queue[:rest]
	if s.space != nil {
		close(s.space)
		s.space = nil
	}
	return true
}

// start sends s.batch as one exchange: a lone message as its own 'D'
// frame, several as one 'B' frame acknowledged once by the first message's
// ID. It builds and seals the frame outside the lock, then arms the timer
// and writes the first copy.
func (s *sender) start() {
	t := s.t
	batch := s.batch
	frame, id := batch[0].frame, batch[0].msgID
	var err error
	if len(batch) > 1 {
		s.frames = s.frames[:0]
		for _, out := range batch {
			s.frames = append(s.frames, out.frame[1:])
		}
		if frame, err = wire.AppendBatchRaw([]byte{frameBatch}, s.frames); err != nil {
			// Cannot happen for frames we encoded ourselves; fail the members
			// rather than wedge the sender.
			t.cfg.Metrics.Inc(CtrSendDrop)
		} else {
			t.cfg.Metrics.Inc(CtrBatchTx)
			t.cfg.Metrics.Add(CtrBatched, int64(len(batch)))
			s.occHist.Observe(int64(len(batch)))
			if t.cfg.Tracer.Enabled() {
				t.trace(obs.EvFrameBatched, s.dst, id, fmt.Sprintf("n=%d", len(batch)))
			}
		}
	}
	// Seal once at the socket boundary: the MAC is deterministic, so every
	// retransmission reuses the same sealed bytes, and frames stay
	// plaintext while queued (batch composition slices them apart).
	var datagram []byte
	if err == nil {
		datagram = seal(s.auth, frame)
	}

	s.mu.Lock()
	s.members, s.firstID = batch, id
	if err != nil {
		s.finish(err)
		s.mu.Unlock()
		return
	}
	s.datagram, s.attempt, s.first = datagram, 0, time.Now()
	s.rto = s.est.rto(t.cfg.RetryBase)
	s.backoff = s.rto
	s.arm(s.rto)
	s.mu.Unlock()

	t.mu.Lock()
	delete(t.inflight, s.lastID)
	t.inflight[id] = s
	addr := t.peers[s.dst] // per copy: AddPeer may have re-pointed the peer
	t.mu.Unlock()
	s.lastID = id
	s.write(datagram, addr)
}

// arm sets the timer for the latest copy's wait, but ends the last wait at
// the give-up horizon while still giving its copy one RTO to be
// acknowledged. Callers hold mu.
func (s *sender) arm(wait time.Duration) {
	now := time.Now()
	if left := s.t.horizon() - now.Sub(s.first); wait > left {
		wait = max(left, s.rto)
	}
	s.deadline = now.Add(wait)
	s.timer.Reset(wait)
}

// write sends one copy of the exchange's datagram. A copy that fails to
// leave is a lost copy: the timer sends another, and on a closed socket run
// fails the exchange.
func (s *sender) write(datagram []byte, addr netip.AddrPort) {
	t := s.t
	t.cfg.Metrics.Inc(CtrDataTx)
	if t.cfg.DropRate > 0 && rand.Float64() < t.cfg.DropRate {
		t.cfg.Metrics.Inc(CtrChaosDrop)
		return
	}
	_, _ = t.conn.WriteToUDPAddrPort(datagram, addr)
}

// ack ends the exchange in flight when id is its key. By Karn's rule only
// an exchange acknowledged on its first copy samples the round trip; one
// that needed retransmissions keeps the back-off that got it through. A
// late duplicate of an earlier exchange's ack matches nothing.
func (s *sender) ack(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.members == nil || s.firstID != id {
		return
	}
	s.timer.Stop()
	if s.attempt == 0 {
		rtt := time.Since(s.first)
		s.est.sample(rtt)
		s.rttHist.Observe(int64(rtt))
	} else {
		s.est.backed = s.backoff
	}
	s.finish(nil)
}

// expire is the timer's callback. It sends another copy after a doubled
// wait stretched by up to half — never shortened — or, once maxAttempts
// copies were sent and the horizon has passed, gives the exchange up. A
// short RTO therefore buys earlier recovery, not less patience. A fire
// that an ack or a later arm overtook finds no exchange or a deadline
// still ahead, and does nothing.
func (s *sender) expire() {
	t := s.t
	s.mu.Lock()
	if s.members == nil || time.Now().Before(s.deadline) {
		s.mu.Unlock()
		return
	}
	if s.attempt+1 >= maxAttempts && time.Since(s.first) >= t.horizon() {
		// Greet a peer this silent like a fresh one: from RetryBase.
		s.est.backed = t.cfg.RetryBase
		t.cfg.Metrics.Inc(CtrSendDrop)
		t.trace(obs.EvTransportDrop, s.dst, s.firstID, "retries_exhausted")
		s.finish(fmt.Errorf("%w: to %d after %d attempts", ErrRetriesExhausted, s.dst, s.attempt+1))
		s.mu.Unlock()
		return
	}
	s.attempt++
	s.backoff *= 2
	t.cfg.Metrics.Inc(CtrRetries)
	t.trace(obs.EvTransportRetry, s.dst, s.firstID, "")
	s.arm(s.backoff + time.Duration(rand.Int63n(int64(s.backoff)/2+1)))
	datagram := s.datagram
	s.mu.Unlock()
	s.write(datagram, t.peerAddr(s.dst))
}

// finish hands every member of the exchange in flight its fate and wakes
// run for the next exchange, or leaves the sender idle. Callers hold mu.
func (s *sender) finish(err error) {
	for _, out := range s.members {
		if out.result != nil {
			out.result <- err // buffered; never blocks
		}
	}
	s.members, s.datagram = nil, nil
	if len(s.queue) > 0 {
		s.signal()
	} else {
		s.busy = false
	}
}

// close fails the exchange in flight once the transport has closed.
func (s *sender) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.timer.Stop()
	if s.members != nil {
		s.finish(ErrClosed)
	}
}

// maxBuckets bounds the rate limiter's per-remote state so an attacker
// cycling source ports cannot grow it without bound.
const maxBuckets = 4096

// bucket is one remote address's token-bucket state.
type bucket struct {
	tokens float64
	last   time.Time
}

// reader is the socket read loop's own state: no other goroutine touches
// it, so it needs no locking.
type reader struct {
	t       *Transport
	auth    *wire.Auth // opens inbound datagrams and seals their acks
	buckets map[netip.AddrPort]*bucket
	burst   float64 // the buckets' depth
	ack     []byte  // the ack being written, reused
	sealed  []byte  // its sealed form, reused

	// The dedup window: the last dedupCap (source, message ID) pairs
	// delivered, oldest overwritten first.
	seen     map[dedupKey]struct{}
	seenRing []dedupKey
	seenPos  int
}

// readLoop receives datagrams until the socket closes. Hostile input is
// shed in order of increasing cost: the rate limiter first (a map lookup),
// then authentication (one HMAC), and only then frame decoding and ARQ
// state.
func (t *Transport) readLoop() {
	defer t.wg.Done()
	buf := make([]byte, 64*1024)
	r := reader{t: t, auth: t.newAuth(), buckets: make(map[netip.AddrPort]*bucket),
		burst: float64(rateBurst(t.cfg.RateLimit)), seen: make(map[dedupKey]struct{})}
	for {
		n, raddr, err := t.conn.ReadFromUDPAddrPort(buf)
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
		r.handle(buf[:n], netip.AddrPortFrom(raddr.Addr().Unmap(), raddr.Port()))
	}
}

// handle sheds or dispatches one inbound datagram from raddr.
func (r *reader) handle(frame []byte, raddr netip.AddrPort) {
	t := r.t
	if !r.admit(raddr) {
		t.cfg.Metrics.Inc(CtrRateLimited)
		t.trace(obs.EvRateLimited, 0, 0, raddr.String())
		return
	}
	if r.auth != nil {
		inner, err := r.auth.Open(frame)
		if err != nil {
			t.cfg.Metrics.Inc(CtrAuthReject)
			t.trace(obs.EvAuthReject, 0, 0, raddr.String())
			return
		}
		frame = inner
		if len(frame) < 1 {
			t.cfg.Metrics.Inc(CtrDecodeErr)
			return
		}
	}
	switch frame[0] {
	case frameAck:
		t.handleAck(frame[1:])
	case frameData:
		r.handleData(frame[1:], raddr)
	case frameBatch:
		r.handleBatch(frame[1:], raddr)
	default:
		t.cfg.Metrics.Inc(CtrDecodeErr)
	}
}

// admit charges one datagram from raddr against its bucket and reports
// whether it may pass. Limiting disabled admits everything.
func (r *reader) admit(raddr netip.AddrPort) bool {
	cfg := &r.t.cfg
	if cfg.RateLimit <= 0 {
		return true
	}
	now := time.Now()
	b, ok := r.buckets[raddr]
	if !ok {
		if len(r.buckets) >= maxBuckets {
			// Prune remotes whose buckets have fully refilled — they have
			// been idle at least burst/RateLimit seconds.
			refill := time.Duration(r.burst / cfg.RateLimit * float64(time.Second))
			for k, old := range r.buckets {
				if now.Sub(old.last) >= refill {
					delete(r.buckets, k)
				}
			}
			if len(r.buckets) >= maxBuckets {
				// Table still full of active remotes: refuse the newcomer
				// rather than evict someone who is behaving.
				return false
			}
		}
		b = &bucket{tokens: r.burst, last: now}
		r.buckets[raddr] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * cfg.RateLimit
	b.tokens = min(b.tokens, r.burst)
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// handleAck runs the ack transition of the sender whose exchange the ack
// names, if any.
func (t *Transport) handleAck(body []byte) {
	msgID, n := binary.Uvarint(body)
	if n <= 0 {
		t.cfg.Metrics.Inc(CtrDecodeErr)
		return
	}
	t.cfg.Metrics.Inc(CtrAckRx)
	t.mu.Lock()
	s := t.inflight[msgID]
	t.mu.Unlock()
	if s != nil {
		s.ack(msgID)
	}
}

func (r *reader) handleData(body []byte, raddr netip.AddrPort) {
	env, err := wire.Decode(body)
	if err != nil {
		r.t.cfg.Metrics.Inc(CtrDecodeErr)
		return
	}

	// Ack every valid data frame, duplicates included — the retransmit
	// means the sender missed the previous ack.
	r.sendAck(env.MsgID, raddr)
	r.deliver(env)
}

// handleBatch unbundles a coalesced frame: one ack for the whole batch
// (keyed on its first envelope, mirroring the sender's ARQ), then each
// inner envelope through the usual per-envelope dedup and delivery.
func (r *reader) handleBatch(body []byte, raddr netip.AddrPort) {
	envs, err := wire.DecodeBatch(body)
	if err != nil {
		r.t.cfg.Metrics.Inc(CtrDecodeErr)
		return
	}
	r.t.cfg.Metrics.Inc(CtrBatchRx)
	r.sendAck(envs[0].MsgID, raddr)
	for _, env := range envs {
		r.deliver(env)
	}
}

func (r *reader) sendAck(msgID uint64, raddr netip.AddrPort) {
	r.ack = binary.AppendUvarint(append(r.ack[:0], frameAck), msgID)
	ack := r.ack
	if r.auth != nil {
		r.sealed = r.auth.AppendSeal(r.sealed[:0], ack)
		ack = r.sealed
	}
	if _, err := r.t.conn.WriteToUDPAddrPort(ack, raddr); err == nil {
		r.t.cfg.Metrics.Inc(CtrAckTx)
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
func (r *reader) deliver(env *wire.Envelope) {
	t := r.t
	key := dedupKey{src: env.Src, id: env.MsgID}
	if _, dup := r.seen[key]; dup {
		t.cfg.Metrics.Inc(CtrDupDrop)
		t.trace(obs.EvTransportDedup, env.Src, env.MsgID, "")
		return
	}
	if len(r.seenRing) < dedupCap {
		r.seenRing = append(r.seenRing, key)
	} else {
		delete(r.seen, r.seenRing[r.seenPos])
		r.seenRing[r.seenPos] = key
		r.seenPos = (r.seenPos + 1) % dedupCap
	}
	r.seen[key] = struct{}{}

	t.cfg.Metrics.Inc(CtrDelivered)
	t.cfg.Metrics.AddTraffic(env.Category, env.Hops)
	if h := t.handler.Load(); h != nil && *h != nil {
		(*h)(env)
	}
}
