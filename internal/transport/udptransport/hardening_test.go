package udptransport

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/netstack"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

var clusterKey = []byte("cluster-key-0123456789abcdef0123")

// newAuthPair is newPair with frame authentication on.
func newAuthPair(t *testing.T, cfgA, cfgB Config) (*Transport, *Transport) {
	t.Helper()
	cfgA.ID, cfgB.ID = 1, 2
	if cfgA.AuthKey == nil {
		cfgA.AuthKey = clusterKey
	}
	if cfgB.AuthKey == nil {
		cfgB.AuthKey = clusterKey
	}
	a, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	b, err := New(cfgB)
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

func rawSocket(t *testing.T) *net.UDPConn {
	t.Helper()
	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })
	return raw
}

// sealedData builds a sealed 'D' frame for an envelope, as a keyed-but-
// malicious sender would.
func sealedData(t *testing.T, key []byte, env *wire.Envelope) []byte {
	t.Helper()
	frame, err := wire.AppendEncode([]byte{frameData}, env)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := wire.Seal(key, frame)
	if err != nil {
		t.Fatal(err)
	}
	return sealed
}

// TestDropRateSentinel: the chaos knob rejects out-of-range values with the
// shared netstack sentinel, so CLI and library callers test one error.
func TestDropRateSentinel(t *testing.T) {
	for _, rate := range []float64{-0.1, 1, 1.5} {
		_, err := New(Config{ID: 1, DropRate: rate})
		if !errors.Is(err, netstack.ErrLossRateRange) {
			t.Errorf("DropRate %v: got %v, want ErrLossRateRange", rate, err)
		}
	}
	if _, err := New(Config{ID: 1, RateLimit: -1}); err == nil {
		t.Error("negative RateLimit accepted")
	}
}

// TestAuthPairDelivery: with a shared key, data, batch and ack frames are
// all sealed and the ARQ round-trip still completes.
func TestAuthPairDelivery(t *testing.T) {
	a, b := newAuthPair(t, Config{}, Config{})
	got := make(chan *wire.Envelope, 1)
	b.SetHandler(func(env *wire.Envelope) { got <- env })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := msg.QuorumClt{BallotID: 9, Owner: 1, Addr: 12, Allocator: 1}
	if err := a.SendWait(ctx, &wire.Envelope{Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig, Payload: want}); err != nil {
		t.Fatalf("SendWait with auth: %v", err)
	}
	select {
	case env := <-got:
		if env.Payload != want {
			t.Errorf("payload = %+v, want %+v", env.Payload, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
	if got := b.Metrics().Counter(CtrAuthReject); got != 0 {
		t.Errorf("auth rejects on honest traffic = %d, want 0", got)
	}
}

// TestAuthRejectsForgery: unsealed and wrong-key datagrams are dropped
// before any transport state changes — nothing delivered, nothing acked,
// nothing entered into the dedup window.
func TestAuthRejectsForgery(t *testing.T) {
	ring := obs.NewRing(64)
	b, err := New(Config{ID: 2, AuthKey: clusterKey, Tracer: obs.NewTracer(nil, ring)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })
	raw := rawSocket(t)

	delivered := make(chan struct{}, 16)
	b.SetHandler(func(*wire.Envelope) { delivered <- struct{}{} })

	env := &wire.Envelope{MsgID: 7, Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{}}
	plain, err := wire.AppendEncode([]byte{frameData}, env)
	if err != nil {
		t.Fatal(err)
	}
	wrongKey := sealedData(t, []byte("not-the-cluster-key-aaaaaaaaaaaa"), env)
	tampered := sealedData(t, clusterKey, env)
	tampered[len(tampered)-1] ^= 0x01

	baddr := b.LocalAddr()
	for _, frame := range [][]byte{plain, wrongKey, tampered} {
		if _, err := raw.WriteToUDP(frame, baddr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrAuthReject) == 3 })

	select {
	case <-delivered:
		t.Fatal("forged frame delivered")
	default:
	}
	if got := b.Metrics().Counter(CtrAckTx); got != 0 {
		t.Errorf("acks sent for forged frames = %d, want 0", got)
	}
	if got := b.Metrics().Counter(CtrDupDrop); got != 0 {
		t.Errorf("forged frames reached the dedup window: %d", got)
	}
	rejects := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvAuthReject {
			rejects++
		}
	}
	if rejects != 3 {
		t.Errorf("trace saw %d auth_reject events, want 3", rejects)
	}
}

// TestAuthReplayReorder: duplicate and out-of-order authenticated frames
// dedup cleanly — each distinct (src, msgID) delivers exactly once, every
// valid frame is acked, and the ARQ state stays healthy enough that a
// normal exchange completes afterwards.
func TestAuthReplayReorder(t *testing.T) {
	a, b := newAuthPair(t, Config{}, Config{})
	var mu sync.Mutex
	got := map[uint64]int{}
	b.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		got[env.MsgID]++
	})

	// A keyed attacker (or a badly reordering network) replays captured
	// frames from node 9: IDs out of order, each twice.
	raw := rawSocket(t)
	baddr := b.LocalAddr()
	frames := map[uint64][]byte{}
	for _, id := range []uint64{101, 102, 103} {
		frames[id] = sealedData(t, clusterKey, &wire.Envelope{
			MsgID: id, Type: msg.TRepReq, Src: 9, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
		})
	}
	for _, id := range []uint64{103, 101, 102, 102, 103, 101} {
		if _, err := raw.WriteToUDP(frames[id], baddr); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrDupDrop) == 3 })
	mu.Lock()
	for _, id := range []uint64{101, 102, 103} {
		if got[id] != 1 {
			t.Errorf("msgID %d delivered %d times, want 1", id, got[id])
		}
	}
	mu.Unlock()
	if gotAcks := b.Metrics().Counter(CtrAckTx); gotAcks != 6 {
		t.Errorf("acks sent = %d, want 6 (duplicates re-acked)", gotAcks)
	}
	if gotRej := b.Metrics().Counter(CtrAuthReject); gotRej != 0 {
		t.Errorf("auth rejects = %d, want 0", gotRej)
	}

	// The replay storm must not have corrupted ARQ state: a normal
	// acknowledged exchange still works.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.SendWait(ctx, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
		t.Fatalf("SendWait after replay storm: %v", err)
	}
}

// TestRateLimit: a flood from one remote is clamped to the bucket budget;
// a different remote is unaffected.
func TestRateLimit(t *testing.T) {
	ring := obs.NewRing(256)
	b, err := New(Config{ID: 2, RateLimit: 1, Tracer: obs.NewTracer(nil, ring)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })

	var mu sync.Mutex
	delivered := 0
	b.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
	})

	flood := rawSocket(t)
	baddr := b.LocalAddr()
	const sent = 50
	for i := 0; i < sent; i++ {
		frame, err := wire.AppendEncode([]byte{frameData}, &wire.Envelope{
			MsgID: uint64(i + 1), Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := flood.WriteToUDP(frame, baddr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return b.Metrics().Counter(CtrRateLimited)+b.Metrics().Counter(CtrDelivered) >= sent
	})
	mu.Lock()
	floodDelivered := delivered
	mu.Unlock()
	// The bucket admits the burst plus whatever refills during the flood
	// (at 1/s, effectively nothing); everything else is shed.
	burst := rateBurst(1)
	if floodDelivered > burst+5 {
		t.Errorf("flood delivered %d frames, want <= %d (burst %d)", floodDelivered, burst+5, burst)
	}
	if got := b.Metrics().Counter(CtrRateLimited); got < int64(sent-burst-5) {
		t.Errorf("rate_limited = %d, want >= %d", got, sent-burst-5)
	}
	limited := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvRateLimited {
			limited++
		}
	}
	if limited == 0 {
		t.Error("no rate_limited trace events")
	}

	// A fresh remote gets its own bucket and sails through.
	other := rawSocket(t)
	frame, err := wire.AppendEncode([]byte{frameData}, &wire.Envelope{
		MsgID: 999, Type: msg.TRepReq, Src: 3, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.WriteToUDP(frame, baddr); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered == floodDelivered+1
	})
}

// TestRateLimitRecovers: after the bucket drains, waiting lets tokens
// refill and traffic pass again.
func TestRateLimitRecovers(t *testing.T) {
	b, err := New(Config{ID: 2, RateLimit: 50})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })
	var mu sync.Mutex
	delivered := 0
	b.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
	})

	raw := rawSocket(t)
	baddr := b.LocalAddr()
	send := func(id uint64) {
		frame, err := wire.AppendEncode([]byte{frameData}, &wire.Envelope{
			MsgID: id, Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.WriteToUDP(frame, baddr); err != nil {
			t.Fatal(err)
		}
	}
	flood := uint64(rateBurst(50) + 8)
	for i := uint64(1); i <= flood; i++ {
		send(i)
	}
	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrRateLimited) > 0 })
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return int64(delivered)+b.Metrics().Counter(CtrRateLimited) == int64(flood)
	})
	mu.Lock()
	drained := delivered
	mu.Unlock()

	time.Sleep(100 * time.Millisecond) // 50/s refills ~5 tokens
	send(flood + 1)
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return delivered > drained
	})
}
