package udptransport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// newPairWith is newPair with the sender (node 1) built from cfg; the
// receiver (node 2) keeps the defaults.
func newPairWith(t *testing.T, cfg Config) (*Transport, *Transport) {
	t.Helper()
	cfg.ID = 1
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	b, err := New(Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })
	if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := b.AddPeer(1, a.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// numbered is a small envelope whose payload carries seq, for order checks.
func numbered(seq int) *wire.Envelope {
	return &wire.Envelope{Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig,
		Payload: msg.QuorumClt{BallotID: uint64(seq)}}
}

// orderRecorder is a handler that records the seq of every numbered
// envelope in arrival order.
type orderRecorder struct {
	mu   sync.Mutex
	seqs []uint64
}

func (r *orderRecorder) handle(env *wire.Envelope) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch p := env.Payload.(type) {
	case msg.QuorumClt:
		r.seqs = append(r.seqs, p.BallotID)
	case msg.ReplicaDist:
		r.seqs = append(r.seqs, uint64(p.Info.Owner))
	}
}

func (r *orderRecorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.seqs)
}

// checkInOrder fails unless exactly 0..n-1 arrived, in that order.
func (r *orderRecorder) checkInOrder(t *testing.T, n int) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seqs) != n {
		t.Fatalf("delivered %d messages, want %d", len(r.seqs), n)
	}
	for i, seq := range r.seqs {
		if seq != uint64(i) {
			t.Fatalf("delivery %d carries seq %d: per-peer order broken", i, seq)
		}
	}
}

// TestCleanLoopbackNoSpuriousRetransmits: on a loss-free path the adaptive
// RTO must not fire ahead of the acks it is waiting for. One exchange per
// message, so both bounds count exchanges: a coalesced burst would hide a
// spurious timer behind few, large frames and charge one retransmitted
// batch as dozens of duplicates.
func TestCleanLoopbackNoSpuriousRetransmits(t *testing.T) {
	a, b := newPair(t)
	var rec orderRecorder
	b.SetHandler(rec.handle)
	const n = 5000
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := a.SendWait(ctx, numbered(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The ack precedes the delivery it acknowledges.
	waitFor(t, 5*time.Second, func() bool { return rec.len() == n })
	rec.checkInOrder(t, n)
	t.Logf("retries %d, receiver dup_drop %d of %d exchanges", a.Metrics().Counter(CtrRetries), b.Metrics().Counter(CtrDupDrop), n)
	if got := a.Metrics().Counter(CtrRetries); got > n/100 {
		t.Errorf("retries = %d on a clean path, want <= %d", got, n/100)
	}
	if got := b.Metrics().Counter(CtrDupDrop); got > n/100 {
		t.Errorf("receiver dup_drop = %d on a clean path, want <= %d", got, n/100)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send_drop = %d, want 0", got)
	}
}

// lossyExchanges sends n messages from a fresh endpoint with 2% chaos loss
// to a clean one, one exchange per message (SendWait returns before the
// next is queued), and returns the sender and how many of the exchanges
// were retransmitted at least once.
func lossyExchanges(t *testing.T, n int, hists *obs.Histograms) (a *Transport, retransmitted int) {
	t.Helper()
	ring := obs.NewRing(1 << 14)
	a, b := newPairWith(t, Config{DropRate: 0.02, RetryBase: 10 * time.Millisecond,
		Tracer: obs.NewTracer(nil, ring), Histograms: hists})
	b.SetHandler(func(*wire.Envelope) {})

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := a.SendWait(ctx, numbered(i)); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	retried := map[uint64]bool{}
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvTransportRetry {
			retried[e.MsgID] = true
		}
	}
	return a, len(retried)
}

// TestLossyRetriesTrackLoss: under 2% loss every retransmission answers a
// lost frame — retries stay within 1.5x the frames chaos dropped.
func TestLossyRetriesTrackLoss(t *testing.T) {
	a, _ := lossyExchanges(t, 3000, nil)
	dropped, retries := a.Metrics().Counter(CtrChaosDrop), a.Metrics().Counter(CtrRetries)
	if dropped == 0 {
		t.Fatal("chaos dropped nothing; the test did not exercise loss")
	}
	t.Logf("retries %d for %d lost frames", retries, dropped)
	if retries < dropped || retries > dropped*3/2 {
		t.Errorf("retries = %d for %d lost frames, want within [1, 1.5]x", retries, dropped)
	}
}

// TestPerPeerOrderUnderLoss: retransmission and coalescing never reorder
// one sender's messages to one peer.
func TestPerPeerOrderUnderLoss(t *testing.T) {
	a, b := newPairWith(t, Config{DropRate: 0.05, RetryBase: 10 * time.Millisecond})
	var rec orderRecorder
	b.SetHandler(rec.handle)

	const n = 1000
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if err := a.Send(ctx, numbered(i)); err != nil {
			t.Fatal(err)
		}
		if i%7 == 0 {
			time.Sleep(50 * time.Microsecond) // mix lone frames with batches
		}
	}
	waitFor(t, 30*time.Second, func() bool { return rec.len() == n })
	rec.checkInOrder(t, n)
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send_drop = %d, want 0", got)
	}
}

// ackingPeer is a hand-rolled endpoint that acknowledges every data or
// batch frame it receives, except while muted, each ack held back by delay.
type ackingPeer struct {
	conn  *net.UDPConn
	muted atomic.Bool
	delay atomic.Int64 // time.Duration
	acked atomic.Int64
}

func newAckingPeer(t *testing.T) *ackingPeer {
	t.Helper()
	p := &ackingPeer{conn: rawSocket(t)}
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, raddr, err := p.conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n < 1 || p.muted.Load() {
				continue
			}
			var env *wire.Envelope
			switch buf[0] {
			case frameData:
				env, err = wire.Decode(buf[1:n])
			case frameBatch:
				var envs []*wire.Envelope
				if envs, err = wire.DecodeBatch(buf[1:n]); err == nil {
					env = envs[0]
				}
			default:
				continue
			}
			if err != nil {
				t.Error(err)
				return
			}
			p.acked.Add(1)
			ack := binary.AppendUvarint([]byte{frameAck}, env.MsgID)
			if d := time.Duration(p.delay.Load()); d > 0 {
				time.AfterFunc(d, func() { p.conn.WriteToUDP(ack, raddr) })
			} else if _, err := p.conn.WriteToUDP(ack, raddr); err != nil {
				return
			}
		}
	}()
	return p
}

// TestGiveUpHorizonSurvivesBlackhole: a peer that goes silent for 200ms —
// a GC pause, a radio fade — still gets the message. The sender first
// learns a loopback-scale RTT, so its RTO sits at the floor, a tenth of
// RetryBase (six doublings from there end after 63ms); the give-up horizon
// must stay RetryBase·(2^MaxAttempts − 1) all the same.
func TestGiveUpHorizonSurvivesBlackhole(t *testing.T) {
	a, err := New(Config{ID: 1, RetryBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	peer := newAckingPeer(t)
	if err := a.AddPeer(2, peer.conn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ {
		if err := a.SendWait(ctx, numbered(i)); err != nil {
			t.Fatal(err)
		}
	}

	peer.muted.Store(true)
	unmute := time.AfterFunc(200*time.Millisecond, func() { peer.muted.Store(false) })
	defer unmute.Stop()
	before := peer.acked.Load()
	if err := a.SendWait(ctx, numbered(20)); err != nil {
		t.Fatalf("message sent into a 200ms blackhole: %v", err)
	}
	if peer.acked.Load() == before {
		t.Error("SendWait returned nil but the peer acknowledged nothing")
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send_drop = %d, want 0", got)
	}
	if got := a.Metrics().Counter(CtrRetries); got == 0 {
		t.Error("no retransmission during the blackhole")
	}
}

// TestSlowedPathKeepsBackOff: when the path turns slower than the estimate —
// a route change — every exchange is retransmitted, so by Karn's rule none
// yields a sample. The back-off that got the last exchange acknowledged must
// stay armed until one does; otherwise the stale RTO retransmits every
// message from then on.
func TestSlowedPathKeepsBackOff(t *testing.T) {
	a, err := New(Config{ID: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	peer := newAckingPeer(t)
	if err := a.AddPeer(2, peer.conn.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < 20; i++ { // learn the loopback RTT: the RTO sits at the floor
		if err := a.SendWait(ctx, numbered(i)); err != nil {
			t.Fatal(err)
		}
	}

	const n = 100
	peer.delay.Store(int64(5 * time.Millisecond)) // 5x the RTO floor
	before := a.Metrics().Counter(CtrRetries)
	for i := 0; i < n; i++ {
		if err := a.SendWait(ctx, numbered(20+i)); err != nil {
			t.Fatal(err)
		}
	}
	retries := a.Metrics().Counter(CtrRetries) - before
	t.Logf("%d retries over %d exchanges on a path 5x slower than the RTO", retries, n)
	if retries == 0 {
		t.Error("no retransmission; the path did not outrun the RTO")
	}
	if retries > n/5 {
		t.Errorf("retries = %d over %d exchanges, want <= %d: the RTO never caught up with the path", retries, n, n/5)
	}
}

// TestRestartedPeerIsNotDeduplicated: a node restarted under its old ID
// must not reuse message IDs its peers still hold in their dedup window —
// its frames would be acknowledged and then dropped as duplicates.
func TestRestartedPeerIsNotDeduplicated(t *testing.T) {
	b, err := New(Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })
	var rec orderRecorder
	b.SetHandler(rec.handle)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const each = 3
	for life := 0; life < 2; life++ {
		a, err := New(Config{ID: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.AddPeer(2, b.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < each; i++ {
			if err := a.SendWait(ctx, numbered(life*each+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(ctx); err != nil {
			t.Fatal(err)
		}
	}
	// The ack precedes the delivery it acknowledges: give the last one a
	// moment, then let checkInOrder say what is missing.
	for deadline := time.Now().Add(2 * time.Second); rec.len() < 2*each && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	rec.checkInOrder(t, 2*each)
}

// TestOversizeFrameBehindSmallOnes: a frame that does not fit the batch
// being collected must open the next one instead of growing the datagram
// past what UDP can carry (where every attempt fails with EMSGSIZE and the
// whole batch is dropped).
func TestOversizeFrameBehindSmallOnes(t *testing.T) {
	// sized is a numbered envelope of about n payload bytes.
	sized := func(seq, n int) *wire.Envelope {
		return &wire.Envelope{Type: msg.TReplicaDist, Dst: 2, Category: metrics.CatSync,
			Payload: msg.ReplicaDist{Info: msg.HolderInfo{Owner: radio.NodeID(seq), Holders: make([]radio.NodeID, n)}}}
	}
	// burst sends 40 small frames (48 KB), a 24 KB one and one more small
	// one, numbered from first; arrived waits for n messages in order.
	const small = 40
	burst := func(t *testing.T, a *Transport, first int) {
		t.Helper()
		for i := 0; i < small; i++ {
			if err := a.Send(context.Background(), sized(first+i, 1200)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Send(context.Background(), sized(first+small, 24*1024)); err != nil {
			t.Fatal(err)
		}
		if err := a.Send(context.Background(), sized(first+small+1, 1200)); err != nil {
			t.Fatal(err)
		}
	}
	arrived := func(t *testing.T, a *Transport, rec *orderRecorder, n int) {
		t.Helper()
		waitFor(t, 10*time.Second, func() bool {
			return rec.len() == n || a.Metrics().Counter(CtrSendDrop) > 0
		})
		if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
			t.Fatalf("send_drop = %d, want 0", got)
		}
		rec.checkInOrder(t, n)
	}
	t.Run("largest cap", func(t *testing.T) {
		a, b := newPairWith(t, Config{BatchFlushBytes: maxBatchBytes})
		var rec orderRecorder
		b.SetHandler(rec.handle)
		// The burst queues behind a first exchange, so the frames meet in
		// one collection: 48 KB of small ones, then 24 KB.
		release := stall(t, a, b, sized(0, 1200))
		burst(t, a, 1)
		release()
		arrived(t, a, &rec, small+3)
		if got := a.Metrics().Counter(CtrBatchTx); got != 2 {
			t.Errorf("batch frames = %d, want 2: the 24 KB frame did not open its own exchange", got)
		}
		if got := a.Metrics().Counter(CtrBatched); got != small+2 {
			t.Errorf("batched envelopes = %d, want %d", got, small+2)
		}
	})
	t.Run("default cap", func(t *testing.T) {
		a, b := newPairWith(t, Config{})
		var rec orderRecorder
		b.SetHandler(rec.handle)
		burst(t, a, 0)
		arrived(t, a, &rec, small+2)
	})
}

// TestLateAckDoesNotCompleteNextExchange: a peer that acknowledges the
// first exchange and then answers every later frame with that same stale
// ack has acknowledged nothing else. The second exchange must run its whole
// retransmission schedule and fail, not complete on the late duplicate.
func TestLateAckDoesNotCompleteNextExchange(t *testing.T) {
	a, err := New(Config{ID: 1, RetryBase: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	peer := rawSocket(t)
	if err := a.AddPeer(2, peer.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	go func() {
		buf := make([]byte, 64*1024)
		var first uint64
		for {
			n, raddr, err := peer.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n < 1 || buf[0] != frameData {
				continue
			}
			env, err := wire.Decode(buf[1:n])
			if err != nil {
				t.Error(err)
				return
			}
			if first == 0 {
				first = env.MsgID
			}
			if _, err := peer.WriteToUDP(binary.AppendUvarint([]byte{frameAck}, first), raddr); err != nil {
				return
			}
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := a.SendWait(ctx, numbered(0)); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	if err := a.SendWait(ctx, numbered(1)); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("second exchange answered only by the first one's ack: %v, want ErrRetriesExhausted", err)
	}
	if got := a.Metrics().Counter(CtrAckRx); got < 2 {
		t.Errorf("ack_rx = %d, want at least 2: the peer sent no late ack", got)
	}
}
