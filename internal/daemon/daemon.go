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
//     the electorate with mutual-exclusion vote grants and version
//     timestamps, tallied by quorum.Ballot as in the simulator, and
//     commits with QUORUM_UPD — the paper's guarantee that no address is
//     ever handed out twice;
//   - address-to-holder attribution propagates with UPDATE_LOC;
//   - members heartbeat with REP_REQ/REP_RSP; a silent member is declared
//     dead after SuspectAfter, and the owner reclaims every address it
//     held via ADDR_REC / REC_REP / QUORUM_UPD(free), then shrinks the
//     electorate with a fresh REPLICA_DIST (§IV-D, §V-B). If the owner
//     itself dies, the lowest-ID survivor promotes itself and reclaims.
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
	// MaxProposals bounds candidate addresses per allocation (default 16).
	MaxProposals int

	// ReplicationTarget is the desired number of replica holders for the
	// owner's table, including the owner itself — the deployment analogue
	// of the paper's QDSet size. 0 replicates to every member (the
	// pre-health-monitor behavior); values >= 2 keep a bounded QDSet that
	// the health monitor maintains proactively, recruiting replacements
	// when holders die instead of waiting for T_d reclamation.
	ReplicationTarget int
	// HealthInterval is the replica-health check period (default
	// 2*HeartbeatInterval). Negative disables the monitor.
	HealthInterval time.Duration
	// ReplicaTTL is how long one REPLICA_ACK keeps a replica counting
	// toward the replication factor (default 8*HeartbeatInterval). The
	// monitor re-syncs holders at half-life so healthy leases never lapse.
	ReplicaTTL time.Duration

	// RetryBase/MaxAttempts/DropRate tune the UDP transport (see
	// udptransport.Config).
	RetryBase   time.Duration
	MaxAttempts int
	DropRate    float64
	// BatchFlushBytes/BatchFlushDelay shape transport frame coalescing:
	// queued messages to one peer always leave the socket as a single
	// batch frame, capped at this many payload bytes (zero: about one
	// MTU) and lingering this long for stragglers (zero: none). See
	// udptransport.Config.
	BatchFlushBytes int
	BatchFlushDelay time.Duration
	// AuthKey, when set, seals every outgoing datagram with
	// HMAC-SHA256 and rejects unauthenticated input before any protocol
	// state is touched (see udptransport.Config.AuthKey and DESIGN.md
	// Appendix F). Every cluster member must share the key.
	AuthKey []byte
	// RateLimit caps accepted datagrams per second per remote address
	// (token bucket, burst RateBurst); 0 disables limiting.
	RateLimit float64
	RateBurst int

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
	if c.MaxProposals == 0 {
		c.MaxProposals = 16
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
	openedAt  time.Time      // current round's open time (ballot RTT histogram)
	tally     *quorum.Ballot // current round's votes, over the roster at open time
	attempts  int
	timer     *time.Timer
	reply     func(addr addrspace.Addr, ok bool)
}

// voteGrant is the voter-side mutual exclusion lock on one address.
type voteGrant struct {
	ballotID uint64
	expires  time.Time
}

// reclaimRun tracks one in-progress reclamation of a dead member.
type reclaimRun struct {
	target    radio.NodeID
	span      uint64 // causal trace minted when the reclamation started
	startedAt time.Time
	refreshed map[addrspace.Addr]bool
}

// Daemon is one protocol node over UDP. Create with New, then Start.
type Daemon struct {
	cfg    Config
	coll   *metrics.SyncCollector
	tracer *obs.Tracer
	ring   *obs.Ring
	hists  *obs.Histograms
	tr     *udptransport.Transport

	draining atomic.Bool

	httpLn  net.Listener
	httpSrv *http.Server

	events chan func()
	done   chan struct{}
	loopWG chan struct{} // closed when the event loop exits

	started time.Time

	// Protocol state: event-loop goroutine only.
	owner          bool
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
	joinStarted  time.Time
	ballots      map[uint64]*ballot
	pendingAddrs map[addrspace.Addr]bool
	grants       map[addrspace.Addr]voteGrant
	reclaims     map[radio.NodeID]*reclaimRun
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
		pendingAddrs: make(map[addrspace.Addr]bool),
		grants:       make(map[addrspace.Addr]voteGrant),
		reclaims:     make(map[radio.NodeID]*reclaimRun),
		joinInFlight: make(map[radio.NodeID]bool),
		allocWaiters: make(map[uint64]chan allocResult),
	}, nil
}

// Start binds the UDP socket (and HTTP listener when configured) and
// launches the event loop. Peers may be added before or after Start; a
// joiner keeps retrying its seeds until one answers.
func (d *Daemon) Start() error {
	tr, err := udptransport.New(udptransport.Config{
		ID:              d.cfg.ID,
		Listen:          d.cfg.Listen,
		Metrics:         d.coll,
		RetryBase:       d.cfg.RetryBase,
		MaxAttempts:     d.cfg.MaxAttempts,
		DropRate:        d.cfg.DropRate,
		BatchFlushBytes: d.cfg.BatchFlushBytes,
		BatchFlushDelay: d.cfg.BatchFlushDelay,
		AuthKey:         d.cfg.AuthKey,
		RateLimit:       d.cfg.RateLimit,
		RateBurst:       d.cfg.RateBurst,
		Tracer:          d.tracer,
		Histograms:      d.hists,
	})
	if err != nil {
		return err
	}
	d.tr = tr
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

	d.started = time.Now()
	started := d.started
	d.tracer.SetClock(func() time.Duration { return time.Since(started) })
	d.trace(obs.Event{Kind: obs.EvDaemonStart})
	go d.loop()

	d.post(func() {
		if d.cfg.Bootstrap {
			d.bootstrap()
		} else {
			d.tryJoin()
		}
		d.scheduleTick()
		d.scheduleHealth()
	})
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

// AddPeer registers the transport address for a peer ID.
func (d *Daemon) AddPeer(id radio.NodeID, addr string) error { return d.tr.AddPeer(id, addr) }

// Trace returns the events currently retained in the daemon's ring sink,
// oldest first — the same view /v1/trace serves.
func (d *Daemon) Trace() []obs.Event { return d.ring.Snapshot() }

// Drain marks the daemon as shutting down: /v1/allocate (and its legacy
// alias) refuse new work with 503 while in-flight protocol traffic keeps
// flowing, so an operator can empty a node before Kill. Drain is
// idempotent and safe under concurrent calls: exactly one caller observes
// the transition (and triggers the trace event); every later or
// concurrent call is a no-op returning false.
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
	select {
	case <-d.done:
		return
	default:
	}
	d.trace(obs.Event{Kind: obs.EvDaemonStop, Detail: "kill"})
	close(d.done)
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

func (d *Daemon) loop() {
	defer close(d.loopWG)
	for {
		select {
		case <-d.done:
			return
		case fn := <-d.events:
			fn()
		}
	}
}

// post hands a closure to the event loop; drops it when the daemon died.
func (d *Daemon) post(fn func()) {
	select {
	case d.events <- fn:
	case <-d.done:
	}
}

// after schedules fn on the event loop.
func (d *Daemon) after(dur time.Duration, fn func()) *time.Timer {
	return time.AfterFunc(dur, func() { d.post(fn) })
}

func (d *Daemon) logf(format string, args ...any) {
	d.cfg.Logf("quorumd[%d]: "+format, append([]any{int(d.cfg.ID)}, args...)...)
}

// --- startup -------------------------------------------------------------

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
	d.owner = true
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
		d.joinStarted = time.Now()
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
	now := time.Now()
	for _, m := range d.peers() {
		if m.lastSeen.IsZero() {
			m.lastSeen = now // grace period starts on first sight of the member
		} else if now.Sub(m.lastSeen) > d.cfg.SuspectAfter {
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
// the sender's trace.
func (d *Daemon) sendSpan(dst radio.NodeID, typ string, cat metrics.Category, span uint64, payload any) {
	if dst == d.cfg.ID {
		return
	}
	env := &wire.Envelope{Type: typ, Dst: dst, Category: cat, Span: span, Payload: payload}
	// Background context: the event loop must never block on a full peer
	// queue, so full queues surface as ErrQueueFull and the protocol's
	// own retries recover.
	if err := d.tr.Send(context.Background(), env); err != nil {
		d.coll.Inc("daemon.send_err")
		d.logf("send %s to %d: %v", typ, dst, err)
	}
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
	lastSeen time.Time      // last message from it; zero: never (tick then starts its grace)
	dead     bool           // the failure detector's verdict
	holder   bool           // designated into the replica set (owner side)
	acked    time.Time      // its last REPLICA_ACK (owner side); zero: never
}

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
