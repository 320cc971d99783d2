package udptransport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

func newPair(t *testing.T) (*Transport, *Transport) {
	t.Helper()
	a, err := New(Config{ID: 1})
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

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestBidirectionalDelivery(t *testing.T) {
	a, b := newPair(t)
	const n = 50

	var mu sync.Mutex
	gotA, gotB := map[uint64]bool{}, map[uint64]bool{}
	a.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		gotA[env.MsgID] = true
	})
	b.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		gotB[env.MsgID] = true
	})

	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
			t.Fatal(err)
		}
		if err := b.Send(context.Background(), &wire.Envelope{Type: msg.TRepRsp, Dst: 1, Category: metrics.CatSync, Payload: msg.RepRsp{}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(gotA) == n && len(gotB) == n
	})
	if got := b.Metrics().Counter(CtrDelivered); got != n {
		t.Errorf("b delivered %d envelopes, want %d", got, n)
	}
}

func TestPayloadSurvivesSocketRoundTrip(t *testing.T) {
	a, b := newPair(t)
	want := msg.QuorumClt{BallotID: 42, Owner: 1, Addr: 77, Split: true, Allocator: 1}

	got := make(chan *wire.Envelope, 1)
	b.SetHandler(func(env *wire.Envelope) { got <- env })
	if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig, Payload: want}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if env.Src != 1 || env.Dst != 2 {
			t.Errorf("endpoints wrong: %+v", env)
		}
		if env.Payload != want {
			t.Errorf("payload = %+v, want %+v", env.Payload, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestUnknownPeer(t *testing.T) {
	a, _ := newPair(t)
	err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 99, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("send to unknown peer: %v", err)
	}
}

func TestSendAfterClose(t *testing.T) {
	a, _ := newPair(t)
	if err := a.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

// TestRetransmitUntilAcked points a transport at a hand-rolled UDP socket
// that stays silent for the first two data frames and only acks the third:
// the message must still arrive exactly once in the sender's accounting.
func TestRetransmitUntilAcked(t *testing.T) {
	a, err := New(Config{ID: 1, RetryBase: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })

	peer, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { peer.Close() })
	if err := a.AddPeer(2, peer.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	acked := make(chan struct{})
	go func() {
		buf := make([]byte, 64*1024)
		frames := 0
		for {
			n, raddr, err := peer.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if n < 1 || buf[0] != frameData {
				continue
			}
			frames++
			if frames < 3 {
				continue // drop: force retransmission
			}
			env, err := wire.Decode(buf[1:n])
			if err != nil {
				t.Error(err)
				return
			}
			ack := binary.AppendUvarint([]byte{frameAck}, env.MsgID)
			if _, err := peer.WriteToUDP(ack, raddr); err != nil {
				t.Error(err)
			}
			close(acked)
			return
		}
	}()

	if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-acked:
	case <-time.After(10 * time.Second):
		t.Fatal("third transmission never happened")
	}
	waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrAckRx) == 1 })
	if got := a.Metrics().Counter(CtrRetries); got < 2 {
		t.Errorf("retries = %d, want >= 2", got)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 0 {
		t.Errorf("send drops = %d, want 0", got)
	}
}

// TestDuplicateSuppression injects the same data frame twice from a raw
// socket: the receiver must deliver once, ack twice.
func TestDuplicateSuppression(t *testing.T) {
	b, err := New(Config{ID: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close(context.Background()) })

	raw, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { raw.Close() })

	var mu sync.Mutex
	delivered := 0
	b.SetHandler(func(*wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered++
	})

	frame := []byte{frameData}
	frame, err = wire.AppendEncode(frame, &wire.Envelope{
		MsgID: 7, Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
	})
	if err != nil {
		t.Fatal(err)
	}
	baddr := b.LocalAddr()
	for i := 0; i < 2; i++ {
		if _, err := raw.WriteToUDP(frame, baddr); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrDupDrop) == 1 })
	mu.Lock()
	defer mu.Unlock()
	if delivered != 1 {
		t.Errorf("delivered %d times, want 1", delivered)
	}
	if got := b.Metrics().Counter(CtrAckTx); got != 2 {
		t.Errorf("acks sent = %d, want 2", got)
	}
}

// TestSendWaitAcked: SendWait returns nil once the peer acks.
func TestSendWaitAcked(t *testing.T) {
	a, b := newPair(t)
	b.SetHandler(func(*wire.Envelope) {})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.SendWait(ctx, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
		t.Fatalf("SendWait to live peer: %v", err)
	}
}

// TestSendWaitRetriesExhausted: a silent peer (raw socket that never acks)
// must surface ErrRetriesExhausted, and the tracer must have seen the
// retry/drop sequence.
func TestSendWaitRetriesExhausted(t *testing.T) {
	ring := obs.NewRing(64)
	tracer := obs.NewTracer(nil, ring)
	a, err := New(Config{ID: 1, RetryBase: time.Millisecond, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })

	mute, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mute.Close() })
	if err := a.AddPeer(2, mute.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = a.SendWait(ctx, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("SendWait to silent peer: %v, want ErrRetriesExhausted", err)
	}
	var sends, retries, drops int
	for _, e := range ring.Snapshot() {
		switch e.Kind {
		case obs.EvTransportSend:
			sends++
		case obs.EvTransportRetry:
			retries++
		case obs.EvTransportDrop:
			drops++
		}
	}
	if sends != 1 || retries != maxAttempts-1 || drops != 1 {
		t.Errorf("trace saw sends=%d retries=%d drops=%d, want 1/%d/1", sends, retries, drops, maxAttempts-1)
	}
}

// TestSendContextCancelled: a context cancelled before the call fails fast.
func TestSendContextCancelled(t *testing.T) {
	a, _ := newPair(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := a.Send(ctx, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("send with cancelled context: %v", err)
	}
}

// TestSendQueueFull: once a destination's queue holds queueLen messages,
// Send with context.Background() fails at once with ErrQueueFull and counts
// a send_drop, while Send with a cancellable context blocks for space until
// its deadline and returns the context's error.
func TestSendQueueFull(t *testing.T) {
	a, err := New(Config{ID: 1, RetryBase: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(context.Background()) })
	mute := rawSocket(t)
	if err := a.AddPeer(2, mute.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	// The first message occupies the destination: it waits a second for an
	// ack that never comes, so everything sent after it queues.
	if err := a.Send(context.Background(), numbered(0)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrDataTx) >= 1 })
	for i := 1; i <= queueLen; i++ {
		if err := a.Send(context.Background(), numbered(i)); err != nil {
			t.Fatalf("message %d into a queue with room: %v", i, err)
		}
	}
	if err := a.Send(context.Background(), numbered(queueLen+1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("send into a full queue without a deadline: %v, want ErrQueueFull", err)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 1 {
		t.Errorf("send_drop = %d, want 1", got)
	}

	const wait = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	start := time.Now()
	err = a.Send(ctx, numbered(queueLen+2))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("send into a full queue with a deadline: %v, want context.DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited < wait {
		t.Errorf("Send returned after %v, before its %v deadline", waited, wait)
	}
	if got := a.Metrics().Counter(CtrSendDrop); got != 1 {
		t.Errorf("send_drop = %d after a blocked send timed out, want still 1", got)
	}
}

// TestCloseEndsSenders: Close returns once every destination's goroutine
// has exited, also one waiting out an exchange to a silent peer, and a
// SendWait in flight gets ErrClosed.
func TestCloseEndsSenders(t *testing.T) {
	t.Run("exchange in flight", func(t *testing.T) {
		a, err := New(Config{ID: 1, RetryBase: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		mute := rawSocket(t)
		if err := a.AddPeer(2, mute.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
		fate := make(chan error, 1)
		go func() { fate <- a.SendWait(context.Background(), numbered(0)) }()
		waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrDataTx) > 0 })
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := a.Close(ctx); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if err := <-fate; !errors.Is(err, ErrClosed) {
			t.Errorf("SendWait across Close: %v, want ErrClosed", err)
		}
	})
}
