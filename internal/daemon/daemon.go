// Package daemon hosts one quorum-autoconfiguration protocol node on real
// sockets — the deployable counterpart of the simulated node in
// internal/core.
//
// A cluster of daemons manages one IPv4 block the way the paper's §IV
// machinery does, specialized to the deployment topology a daemon fleet
// actually has (every peer one socket hop away, so the QDSet is the whole
// cluster and replication is full):
//
//   - the bootstrap daemon owns the address space (the paper's first
//     cluster head) and is the allocator;
//   - joining daemons request an address with CH_REQ — any member relays
//     to the owner through AGENT_FWD/AGENT_CFG — receive a COM_CFG grant
//     plus a REPLICA_DIST replica of the table, and enter the electorate;
//   - every allocation runs a quorum ballot (QUORUM_CLT/QUORUM_CFM) over
//     the electorate with mutual-exclusion vote grants (quorum.Grants) and
//     version timestamps, tallied by quorum.Ballot as in the simulator, and
//     commits with QUORUM_UPD — the paper's guarantee that no address is
//     ever handed out twice;
//   - address-to-holder attribution propagates with UPDATE_LOC;
//   - a commit goes at once to the voters the ballot asked, the requestor
//     and the failover successor, and rides the next message — at the
//     latest the heartbeat — to every other member (write.go);
//   - members heartbeat with REP_REQ/REP_RSP; a silent member is declared
//     dead after SuspectAfter, and the owner reclaims every address it
//     held via ADDR_REC / REC_REP / QUORUM_UPD(free), then shrinks the
//     electorate with a fresh REPLICA_DIST (§IV-D, §V-B); a member heard
//     from before the run settles keeps both. If the owner itself dies,
//     the lowest-ID survivor promotes itself and reclaims.
//
// All protocol state lives on a single event-loop goroutine; the
// transport's receive callback, timers and HTTP handlers post closures to
// it, so there is no protocol-level locking. What a daemon knows about an
// electorate member is one record in one roster sorted by ID (member,
// admit, expel, adopt): a member that leaves takes all of its state with
// it, and one that comes back starts fresh.
package daemon

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sync/atomic"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/health"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/quorum"
	"quorumconf/internal/radio"
	"quorumconf/internal/transport/udptransport"
	"quorumconf/internal/wire"
)

// maxProposals bounds candidate addresses per allocation.
const maxProposals = 16

// Config parameterizes one daemon. Zero durations take defaults sized for
// LAN deployments; tests shrink them.
type Config struct {
	// ID is this daemon's node ID (must be unique in the cluster).
	ID radio.NodeID
	// Space is the cluster's full address block; every member must agree.
	Space addrspace.Block
	// Bootstrap makes this daemon the initial space owner (exactly one
	// per cluster).
	Bootstrap bool
	// Seeds are peers asked for configuration, tried round-robin. Ignored
	// for the bootstrap daemon.
	Seeds []radio.NodeID
	// Listen is the UDP bind address ("127.0.0.1:0" for ephemeral).
	Listen string
	// HTTPListen is the control API bind address; empty disables HTTP.
	HTTPListen string

	// HeartbeatInterval is the REP_REQ period (default 500ms).
	HeartbeatInterval time.Duration
	// SuspectAfter declares a silent member dead (default 4 heartbeats).
	SuspectAfter time.Duration
	// QuorumTimeout bounds one ballot round (default 1s).
	QuorumTimeout time.Duration
	// ReclaimSettle is how long reclamation waits for REC_REP defenses
	// (default 1s).
	ReclaimSettle time.Duration
	// JoinRetry is the joiner's re-request period (default 700ms).
	JoinRetry time.Duration
	// AllocTimeout bounds one HTTP /v1/allocate request (default 5s).
	AllocTimeout time.Duration
	// ReplicationTarget is the desired number of replica holders for the
	// owner's table, including the owner itself — the deployment analogue
	// of the paper's QDSet size. 0 replicates to every member (the
	// pre-health-monitor behavior); values >= 2 keep a bounded QDSet that
	// every health check maintains proactively, recruiting replacements
	// when holders die instead of waiting for T_d reclamation.
	ReplicationTarget int
	// HealthInterval is the replica-health check period (default
	// 2*HeartbeatInterval). Negative disables the monitor.
	HealthInterval time.Duration
	// ReplicaTTL is how long one REPLICA_ACK keeps a replica counting
	// toward the replication factor (default 8*HeartbeatInterval). The
	// monitor re-syncs holders at half-life so healthy leases never lapse.
	ReplicaTTL time.Duration

	// RetryBase/DropRate tune the UDP transport (see udptransport.Config).
	RetryBase time.Duration
	DropRate  float64
	// BatchFlushBytes shapes transport frame coalescing: queued messages
	// to one peer always leave the socket as a single batch frame, capped
	// at this many payload bytes (zero: about one MTU). See
	// udptransport.Config.
	BatchFlushBytes int
	// AuthKey, when set, seals every outgoing datagram with
	// HMAC-SHA256 and rejects unauthenticated input before any protocol
	// state is touched (see udptransport.Config.AuthKey and DESIGN.md
	// Appendix F). Every cluster member must share the key.
	AuthKey []byte
	// RateLimit caps accepted datagrams per second per remote address
	// (token bucket, burst max(16, RateLimit)); 0 disables limiting.
	RateLimit float64

	// Nonce disambiguates the network tag; 0 draws a random one.
	Nonce uint32
	// Metrics receives daemon and transport counters; nil allocates one.
	Metrics *metrics.SyncCollector
	// Tracer receives protocol events. Nil allocates a private tracer.
	// Either way the daemon attaches a bounded ring sink (obs.Ring) that
	// /v1/trace serves, and rebinds the tracer clock to time since Start.
	Tracer *obs.Tracer
	// TraceRing bounds the /v1/trace ring (default obs.DefaultRingSize).
	TraceRing int
	// Histograms receives protocol latency distributions — config latency,
	// ballot RTT, reclamation time and transport batch occupancy — served
	// by /v1/metrics in Prometheus histogram format. Nil allocates a
	// private registry (histograms are always on; recording is lock-free).
	Histograms *obs.Histograms
	// Logf receives progress logging; nil discards.
	Logf func(format string, args ...any)
}

func (c *Config) setDefaults() error {
	if c.ID <= 0 {
		return fmt.Errorf("daemon: node ID must be positive, got %d", c.ID)
	}
	if c.Space.Size() < 2 {
		return fmt.Errorf("daemon: address space %v too small", c.Space)
	}
	if !c.Bootstrap && len(c.Seeds) == 0 {
		return fmt.Errorf("daemon: non-bootstrap daemon needs at least one seed")
	}
	if c.Listen == "" {
		c.Listen = "127.0.0.1:0"
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter == 0 {
		c.SuspectAfter = 4 * c.HeartbeatInterval
	}
	if c.QuorumTimeout == 0 {
		c.QuorumTimeout = time.Second
	}
	if c.ReclaimSettle == 0 {
		c.ReclaimSettle = time.Second
	}
	if c.JoinRetry == 0 {
		c.JoinRetry = 700 * time.Millisecond
	}
	if c.AllocTimeout == 0 {
		c.AllocTimeout = 5 * time.Second
	}
	if c.ReplicationTarget < 0 || c.ReplicationTarget == 1 {
		return fmt.Errorf("daemon: replication target %d: want 0 (full) or >= 2", c.ReplicationTarget)
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * c.HeartbeatInterval
	}
	if c.ReplicaTTL == 0 {
		c.ReplicaTTL = 8 * c.HeartbeatInterval
	}
	if c.Nonce == 0 {
		c.Nonce = rand.Uint32()
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewSync()
	}
	if c.Histograms == nil {
		c.Histograms = obs.NewHistograms()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// ballot is one in-flight quorum vote collection at the allocator.
type ballot struct {
	id        uint64
	addr      addrspace.Addr
	requestor radio.NodeID
	span      uint64         // causal trace of the allocation this ballot serves
	openedAt  time.Duration  // current round's open time (ballot RTT histogram)
	tally     *quorum.Ballot // current round's votes, over the roster at open time
	asked     []radio.NodeID // current round's voters, the peers its commit writes at once
	attempts  int
	stop      func() bool // cancels the current round's timeout
	reply     func(addr addrspace.Addr, ok bool)
}

// Daemon is one protocol node over UDP. Create with New, then Start.
type Daemon struct {
	cfg    Config
	coll   *metrics.SyncCollector
	tracer *obs.Tracer
	ring   *obs.Ring
	hists  *obs.Histograms
	tr     *udptransport.Transport
	early  map[radio.NodeID]string // peers added before Start, for Start to register

	draining atomic.Bool
	killed   atomic.Bool

	httpLn  net.Listener
	httpSrv *http.Server

	events chan func() // nil wakes the loop to exit after Kill
	done   chan struct{}
	loopWG chan struct{} // closed when the event loop exits

	// The engine's seam: clock, scheduler and outbox. Start binds them to
	// the wall clock and the UDP transport; a test harness binds its own.
	clock func() time.Duration
	sched func(time.Duration, func()) (stop func() bool)
	out   func(*wire.Envelope) error

	// Protocol state: event-loop goroutine only.
	ownerID        radio.NodeID
	joined         bool
	haveMembership bool // adopted at least one REPLICA_DIST membership view
	selfIP         addrspace.Addr
	hasIP          bool
	networkID      msg.NetTag
	table          *addrspace.Table
	roster         []*member // the electorate, self included, ascending by ID
	holders        map[addrspace.Addr]radio.NodeID

	// monitor judges the replica leases the roster records (owner side).
	monitor *health.Monitor

	// Graceful departure state (member side).
	departing     bool
	departed      bool
	departWaiters []chan error

	ballotSeq    uint64
	spanSeq      uint64 // per-daemon sequence behind mintSpan
	joinSpan     uint64 // span of this daemon's own join, minted on first CH_REQ
	joinStarted  time.Duration
	ballots      map[uint64]*ballot
	grants       *quorum.Grants
	reclaims     quorum.Reclaims
	joinInFlight map[radio.NodeID]bool
	joinTries    int
	allocWaiters map[uint64]chan allocResult // forwarded /v1/allocate callers, by span
}

type allocResult struct {
	addr addrspace.Addr
	ok   bool
}

// New validates the configuration and builds a daemon. Nothing is bound
// until Start.
func New(cfg Config) (*Daemon, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	ring := obs.NewRing(cfg.TraceRing)
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(nil)
	}
	tracer.AddSink(ring)
	return &Daemon{
		cfg:          cfg,
		coll:         cfg.Metrics,
		tracer:       tracer,
		ring:         ring,
		hists:        cfg.Histograms,
		events:       make(chan func(), 1024),
		done:         make(chan struct{}),
		loopWG:       make(chan struct{}),
		holders:      make(map[addrspace.Addr]radio.NodeID),
		monitor:      health.New(health.Config{Target: cfg.ReplicationTarget, TTL: cfg.ReplicaTTL}, tracer),
		ballots:      make(map[uint64]*ballot),
		grants:       quorum.NewGrants(2 * cfg.QuorumTimeout),
		reclaims:     make(quorum.Reclaims),
		joinInFlight: make(map[radio.NodeID]bool),
		allocWaiters: make(map[uint64]chan allocResult),
	}, nil
}

// Start binds the UDP socket (and HTTP listener when configured) and
// launches the event loop. Peers may be added before or after Start: the
// ones added before are registered with the transport before the first
// CH_REQ leaves, and a joiner keeps retrying its seeds until one answers.
func (d *Daemon) Start() error {
	tr, err := udptransport.New(udptransport.Config{
		ID:              d.cfg.ID,
		Listen:          d.cfg.Listen,
		Metrics:         d.coll,
		RetryBase:       d.cfg.RetryBase,
		DropRate:        d.cfg.DropRate,
		BatchFlushBytes: d.cfg.BatchFlushBytes,
		AuthKey:         d.cfg.AuthKey,
		RateLimit:       d.cfg.RateLimit,
		Tracer:          d.tracer,
		Histograms:      d.hists,
	})
	if err != nil {
		return err
	}
	for id, addr := range d.early {
		if err := tr.AddPeer(id, addr); err != nil {
			_ = tr.Close(context.Background())
			return err
		}
	}
	d.tr = tr
	started := time.Now()
	d.clock = func() time.Duration { return time.Since(started) }
	d.sched = func(dur time.Duration, fn func()) func() bool {
		return time.AfterFunc(dur, func() { d.post(fn) }).Stop
	}
	// Background context: the loop never blocks on a full peer queue; the
	// protocol's own retries recover from ErrQueueFull.
	d.out = func(env *wire.Envelope) error { return tr.Send(context.Background(), env) }
	tr.SetHandler(func(env *wire.Envelope) { d.post(func() { d.handle(env) }) })

	if d.cfg.HTTPListen != "" {
		ln, err := net.Listen("tcp", d.cfg.HTTPListen)
		if err != nil {
			_ = tr.Close(context.Background())
			return fmt.Errorf("daemon: http listen: %w", err)
		}
		d.httpLn = ln
		d.httpSrv = &http.Server{Handler: d.httpMux()}
		go func() { _ = d.httpSrv.Serve(ln) }()
	}

	// Set before Start returns: a caller sharing the tracer resets it next.
	d.tracer.SetClock(d.now)
	d.trace(obs.Event{Kind: obs.EvDaemonStart})
	go d.loop()
	d.post(d.boot)
	d.logf("started: udp=%s bootstrap=%v", tr.LocalAddr(), d.cfg.Bootstrap)
	return nil
}

// ID returns the daemon's node ID.
func (d *Daemon) ID() radio.NodeID { return d.cfg.ID }

// UDPAddr returns the bound transport address (valid after Start).
func (d *Daemon) UDPAddr() *net.UDPAddr { return d.tr.LocalAddr() }

// HTTPAddr returns the control API address, or "" when HTTP is disabled.
func (d *Daemon) HTTPAddr() string {
	if d.httpLn == nil {
		return ""
	}
	return d.httpLn.Addr().String()
}

// Metrics returns the daemon's collector.
func (d *Daemon) Metrics() *metrics.SyncCollector { return d.coll }

// Histograms returns the daemon's latency-histogram registry — the same
// one /v1/metrics exports.
func (d *Daemon) Histograms() *obs.Histograms { return d.hists }

// AddPeer registers the transport address for a peer ID. Before Start it
// only records the address, and Start registers it (and reports a bad
// one); calls before Start must not race Start.
func (d *Daemon) AddPeer(id radio.NodeID, addr string) error {
	if d.tr == nil {
		if d.early == nil {
			d.early = make(map[radio.NodeID]string)
		}
		d.early[id] = addr
		return nil
	}
	return d.tr.AddPeer(id, addr)
}

// Trace returns the events currently retained in the daemon's ring sink,
// oldest first — the same view /v1/trace serves.
func (d *Daemon) Trace() []obs.Event { return d.ring.Snapshot() }

// Drain marks the daemon as shutting down: /v1/allocate refuses new work
// with 503 while in-flight protocol traffic keeps flowing, so an operator
// can empty a node before Kill. Drain is idempotent and safe under
// concurrent calls: exactly one caller observes the transition (and
// triggers the trace event); every later or concurrent call returns false.
func (d *Daemon) Drain() bool {
	if d.draining.Swap(true) {
		return false
	}
	d.trace(obs.Event{Kind: obs.EvDaemonStop, Detail: "draining"})
	d.logf("draining: refusing new allocations")
	return true
}

// Draining reports whether Drain was called.
func (d *Daemon) Draining() bool { return d.draining.Load() }

// ErrOwnerDepart rejects graceful departure on the space owner: its
// replica holders cannot absorb the allocator role mid-flight (ownership
// handoff is a failover path, not a departure path).
var ErrOwnerDepart = errors.New("daemon: the space owner cannot depart gracefully")

// ErrNotJoined rejects operations that need a configured member.
var ErrNotJoined = errors.New("daemon: not joined")

// Depart performs the paper's graceful RETURN_ADDR departure on demand:
// every address this member holds (its own IP last) is returned to the
// owner, which frees them under quorum, shrinks the electorate, and
// confirms with DEPART_ACK. The daemon drains immediately and keeps
// answering reads, so an operator can verify and then Kill it. Depart is
// idempotent: concurrent calls share one departure exchange.
func (d *Daemon) Depart(ctx context.Context) error {
	res := make(chan error, 1)
	d.post(func() { d.startDepart(res) })
	select {
	case err := <-res:
		return err
	case <-ctx.Done():
		return ctx.Err()
	case <-d.done:
		return errors.New("daemon: stopped before departure completed")
	}
}

// Kill stops the daemon abruptly: sockets closed, no departure exchange —
// the crash the paper's reclamation machinery exists for. Safe to call
// more than once.
func (d *Daemon) Kill() {
	if d.killed.Swap(true) {
		return
	}
	d.trace(obs.Event{Kind: obs.EvDaemonStop, Detail: "kill"})
	close(d.done)
	// Wake the loop to exit. A full queue needs no wake-up: the loop is
	// busy and sees killed before its next event.
	select {
	case d.events <- nil:
	default:
	}
	if d.httpSrv != nil {
		_ = d.httpSrv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_ = d.tr.Close(ctx)
	<-d.loopWG
}

// Close is Kill. For a graceful leave, call Depart first (RETURN_ADDR on
// demand), then Kill once it confirms.
func (d *Daemon) Close() { d.Kill() }

// --- event loop ----------------------------------------------------------

// loop runs events until Kill: it receives from events alone, and Kill's
// nil wake-up or its killed flag, read before each event, ends it.
func (d *Daemon) loop() {
	defer close(d.loopWG)
	for fn := range d.events {
		if fn == nil || d.killed.Load() {
			return
		}
		fn()
	}
}

// post hands a closure to the event loop; drops it when the daemon died.
// The queue almost always has room, and a non-blocking send is cheaper
// than the two-way select, which only a full queue needs.
func (d *Daemon) post(fn func()) {
	select {
	case d.events <- fn:
		return
	default:
	}
	select {
	case d.events <- fn:
	case <-d.done:
	}
}

// now reads the engine clock, the time since Start. Every protocol time is a
// reading of it, and no other engine code reads the wall clock. 0 means
// never, so a bound clock reads positive on the loop.
func (d *Daemon) now() time.Duration { return d.clock() }

// after is the engine's only scheduler: it runs fn on the event loop once
// dur has passed, unless the returned stop is called first.
func (d *Daemon) after(dur time.Duration, fn func()) (stop func() bool) {
	return d.sched(dur, fn)
}

// instant places engine time t on the time.Time scale package health
// measures leases on, with the zero Time as origin: only differences count
// there, and 0 (never) stays the zero Time that health reads as never.
func instant(t time.Duration) time.Time { return time.Time{}.Add(t) }

func (d *Daemon) logf(format string, args ...any) {
	d.cfg.Logf("quorumd[%d]: "+format, append([]any{int(d.cfg.ID)}, args...)...)
}

// --- startup -------------------------------------------------------------

// boot starts the protocol on the loop, however the seam is bound:
// bootstrap or the first join attempt, then the heartbeat and health ticks.
func (d *Daemon) boot() {
	if d.cfg.Bootstrap {
		d.bootstrap()
	} else {
		d.tryJoin()
	}
	d.scheduleTick()
	d.scheduleHealth()
}

// bootstrap makes this daemon the first node: it owns the whole space and
// configures itself with the lowest address (the paper's first cluster
// head, whose IP becomes the network ID).
func (d *Daemon) bootstrap() {
	t, err := addrspace.NewTable(d.cfg.Space)
	if err != nil {
		d.logf("bootstrap: %v", err)
		return
	}
	d.table = t
	d.selfIP = d.cfg.Space.Lo
	d.hasIP = true
	if _, err := d.table.Mark(d.selfIP, addrspace.Occupied); err != nil {
		d.logf("bootstrap mark: %v", err)
	}
	d.networkID = msg.NetTag{Addr: d.selfIP, Nonce: d.cfg.Nonce}
	d.ownerID = d.cfg.ID
	d.admit(d.cfg.ID)
	d.holders[d.selfIP] = d.cfg.ID
	d.joined = true
	d.coll.Inc("daemon.bootstrap")
	d.trace(obs.Event{Kind: obs.EvHeadElected, Addr: d.selfIP, Detail: "bootstrap"})
	d.trace(obs.Event{Kind: obs.EvNodeConfigured, Addr: d.selfIP, Detail: "head"})
	d.logf("bootstrap: own %v as %v, network %v", d.cfg.Space, d.selfIP, d.networkID)
}

// tryJoin sends CH_REQ to the next seed; rescheduled until joined. The
// first attempt mints this daemon's join span, which every retry reuses —
// the whole join is one causal operation however many seeds it takes.
func (d *Daemon) tryJoin() {
	if d.joined {
		return
	}
	seed := d.cfg.Seeds[d.joinTries%len(d.cfg.Seeds)]
	d.joinTries++
	if d.joinSpan == 0 {
		d.joinSpan = d.mintSpan()
		d.joinStarted = d.now()
		d.trace(obs.Event{Kind: obs.EvAllocRequest, Peer: seed, Span: d.joinSpan, Detail: "join"})
	}
	d.coll.Inc("daemon.join_attempts")
	d.sendSpan(seed, msg.TChReq, metrics.CatConfig, d.joinSpan, msg.ChReq{PathHops: 0})
	d.after(d.cfg.JoinRetry, d.tryJoin)
}

// scheduleTick runs the periodic maintenance: heartbeats and failure
// detection.
func (d *Daemon) scheduleTick() {
	d.after(d.cfg.HeartbeatInterval, func() {
		d.tick()
		d.scheduleTick()
	})
}

// scheduleHealth runs the replica-health monitor (owner side).
func (d *Daemon) scheduleHealth() {
	if d.cfg.HealthInterval <= 0 {
		return
	}
	d.after(d.cfg.HealthInterval, func() {
		d.healthTick()
		d.scheduleHealth()
	})
}

func (d *Daemon) tick() {
	if !d.joined || d.departed {
		return
	}
	now := d.now()
	for _, m := range d.peers() {
		if m.lastSeen == 0 {
			m.lastSeen = now // grace period starts on first sight of the member
		} else if now-m.lastSeen > d.cfg.SuspectAfter {
			d.declareDead(m)
			continue
		}
		d.sendTo(m.id, msg.TRepReq, metrics.CatHello, msg.RepReq{})
	}
}

// --- helpers -------------------------------------------------------------

func (d *Daemon) sendTo(dst radio.NodeID, typ string, cat metrics.Category, payload any) {
	d.sendSpan(dst, typ, cat, 0, payload)
}

// sendSpan is sendTo carrying a causal span identifier: the envelope rides
// the wire in the version-2 span extension, so the receiver's events join
// the sender's trace. The writes deferred to dst leave ahead of it, so dst
// sees every message in the order the owner produced it.
func (d *Daemon) sendSpan(dst radio.NodeID, typ string, cat metrics.Category, span uint64, payload any) {
	if dst == d.cfg.ID {
		return
	}
	if m := d.member(dst); m != nil && len(m.pending) > 0 {
		d.flushWrites(m)
	}
	env := &wire.Envelope{Type: typ, Dst: dst, Category: cat, Span: span, Payload: payload}
	if err := d.out(env); err != nil {
		d.coll.Inc("daemon.send_err")
		d.logf("send %s to %d: %v", typ, dst, err)
	}
}

// heldBy lists the addresses attributed to id (to anyone when id is 0) in
// ascending order, so what the engine sends about them keeps one order.
func (d *Daemon) heldBy(id radio.NodeID) []addrspace.Addr {
	var out []addrspace.Addr
	for addr, h := range d.holders {
		if id == 0 || h == id {
			out = append(out, addr)
		}
	}
	slices.Sort(out)
	return out
}

// mintSpan issues the next causal trace identifier originating at this
// daemon. Event-loop goroutine only.
func (d *Daemon) mintSpan() uint64 {
	d.spanSeq++
	return obs.MintSpan(d.cfg.ID, d.spanSeq)
}

// trace stamps the local node ID onto e and emits it.
func (d *Daemon) trace(e obs.Event) {
	e.Node = d.cfg.ID
	d.tracer.Emit(e)
}

// --- roster --------------------------------------------------------------

// member is everything the daemon records about one electorate member. It
// exists exactly as long as the ID is in the electorate: an ID that leaves
// and later re-enters starts over — alive, unseen, not a holder, never
// acknowledged.
type member struct {
	id       radio.NodeID
	ip       addrspace.Addr // zero: not learned yet; self's lives in selfIP (see ipOf)
	lastSeen time.Duration  // last message from it; zero: never (tick then starts its grace)
	dead     bool           // the failure detector's verdict
	holder   bool           // designated into the replica set (owner side)
	acked    time.Duration  // its last REPLICA_ACK (owner side); zero: never
	pending  []write        // committed writes deferred to the next message to it (owner side)
}

// isOwner reports whether this daemon owns the space and runs its ballots.
func (d *Daemon) isOwner() bool { return d.ownerID == d.cfg.ID }

// member returns id's record, nil when id is not in the electorate.
func (d *Daemon) member(id radio.NodeID) *member {
	if i, ok := d.rosterIndex(id); ok {
		return d.roster[i]
	}
	return nil
}

func (d *Daemon) rosterIndex(id radio.NodeID) (int, bool) {
	return slices.BinarySearchFunc(d.roster, id, func(m *member, id radio.NodeID) int { return cmp.Compare(m.id, id) })
}

// admit returns id's record, entering a fresh one into the roster when id
// is not a member yet.
func (d *Daemon) admit(id radio.NodeID) *member {
	i, ok := d.rosterIndex(id)
	if !ok {
		d.roster = slices.Insert(d.roster, i, &member{id: id})
	}
	return d.roster[i]
}

// expel drops id from the roster, and with the record everything that was
// known about it.
func (d *Daemon) expel(id radio.NodeID) {
	if i, ok := d.rosterIndex(id); ok {
		d.roster = slices.Delete(d.roster, i, i+1)
	}
}

// adopt makes the roster the set ids names (the electorate of a
// REPLICA_DIST) — beside admit and expel the only writer of the roster. It
// is a set difference: a member that stays keeps its record, a newcomer
// gets a fresh one, and a member that is gone is dropped whole.
func (d *Daemon) adopt(ids []radio.NodeID) {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	next := make([]*member, len(ids))
	for i, id := range ids {
		if next[i] = d.member(id); next[i] == nil {
			next[i] = &member{id: id}
		}
	}
	d.roster = next
}

// electorate lists the roster's IDs, ascending — the form the wire and the
// logs use.
func (d *Daemon) electorate() []radio.NodeID {
	ids := make([]radio.NodeID, len(d.roster))
	for i, m := range d.roster {
		ids[i] = m.id
	}
	return ids
}

// peers returns the members not declared dead, without self: everyone a
// broadcast goes to. The slice is the caller's, so the roster may change
// under a loop over it.
func (d *Daemon) peers() []*member {
	out := make([]*member, 0, len(d.roster))
	for _, m := range d.roster {
		if m.id != d.cfg.ID && !m.dead {
			out = append(out, m)
		}
	}
	return out
}

// ipOf returns the address id configured itself with, zero when unknown.
func (d *Daemon) ipOf(id radio.NodeID) addrspace.Addr {
	if id == d.cfg.ID {
		return d.selfIP
	}
	if m := d.member(id); m != nil {
		return m.ip
	}
	return 0
}
