package udptransport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

// TestBatchCoalescesBurst: a burst of small messages to one peer leaves the
// socket as a handful of batch frames, and every envelope still arrives
// exactly once: whatever queued up during the previous exchange's round
// trip shares a frame.
func TestBatchCoalescesBurst(t *testing.T) {
	t.Run("default", testBatchCoalescesBurst)
}

func testBatchCoalescesBurst(t *testing.T) {
	ring := obs.NewRing(256)
	a, b := newPairWith(t, Config{Tracer: obs.NewTracer(nil, ring)})

	const n = 100
	var mu sync.Mutex
	got := map[uint64]int{}
	b.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		got[env.MsgID]++
	})
	for i := 0; i < n; i++ {
		if err := a.Send(context.Background(), &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	for id, times := range got {
		if times != 1 {
			t.Errorf("message %d delivered %d times", id, times)
		}
	}
	mu.Unlock()
	if tx := a.Metrics().Counter(CtrBatchTx); tx == 0 {
		t.Error("burst produced no batch frames")
	}
	if rx := b.Metrics().Counter(CtrBatchRx); rx == 0 {
		t.Error("receiver saw no batch frames")
	}
	if batched := a.Metrics().Counter(CtrBatched); batched < 2 {
		t.Errorf("only %d envelopes rode batches", batched)
	}
	found := false
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvFrameBatched {
			found = true
		}
	}
	if !found {
		t.Error("no frame_batched trace event")
	}
}

// TestBatchRetransmitDeduped injects the same batch frame twice from a raw
// socket: each inner envelope delivers once, and both copies are acked (the
// retransmit means the sender missed the first ack).
func TestBatchRetransmitDeduped(t *testing.T) {
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
	delivered := map[uint64]int{}
	b.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		delivered[env.MsgID]++
	})

	envs := make([]*wire.Envelope, 3)
	for i := range envs {
		envs[i] = &wire.Envelope{
			MsgID: uint64(7 + i), Type: msg.TRepReq, Src: 1, Dst: 2,
			Category: metrics.CatSync, Hops: 1, Payload: msg.RepReq{},
		}
	}
	frame, err := wire.AppendEncodeBatch([]byte{frameBatch}, envs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := raw.WriteToUDP(frame, b.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, 5*time.Second, func() bool { return b.Metrics().Counter(CtrDupDrop) == 3 })
	mu.Lock()
	defer mu.Unlock()
	for _, env := range envs {
		if delivered[env.MsgID] != 1 {
			t.Errorf("message %d delivered %d times, want 1", env.MsgID, delivered[env.MsgID])
		}
	}
	if got := b.Metrics().Counter(CtrBatchRx); got != 2 {
		t.Errorf("batch frames received = %d, want 2", got)
	}
	if got := b.Metrics().Counter(CtrAckTx); got != 2 {
		t.Errorf("acks sent = %d, want 2", got)
	}
}

// TestBatchSendWaitShareFate: SendWait callers whose messages coalesce into
// one batch all resolve with the batch's single acknowledgement.
func TestBatchSendWaitShareFate(t *testing.T) {
	ring := obs.NewRing(64)
	a, b := newPairWith(t, Config{Tracer: obs.NewTracer(nil, ring)})
	b.SetHandler(func(*wire.Envelope) {})
	release := stall(t, a, b, numbered(0))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, 5)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = a.SendWait(ctx, &wire.Envelope{Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
		}(i)
	}
	// Every SendWait has queued once its transport_send is traced.
	waitFor(t, 5*time.Second, func() bool {
		sends := 0
		for _, e := range ring.Snapshot() {
			if e.Kind == obs.EvTransportSend {
				sends++
			}
		}
		return sends == 1+len(errs)
	})
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("SendWait %d: %v", i, err)
		}
	}
	if got := a.Metrics().Counter(CtrBatchTx); got != 1 {
		t.Errorf("batch frames = %d, want 1", got)
	}
	if got := a.Metrics().Counter(CtrBatched); got != int64(len(errs)) {
		t.Errorf("batched envelopes = %d, want %d", got, len(errs))
	}
}

// stall points a's peer 2 at a mute socket and sends first there, so that
// what a sends next queues behind an exchange nobody acknowledges. The
// returned release points peer 2 at to: the address is read per copy, so
// the next retransmission is acknowledged and the queue leaves in one
// collection.
func stall(t *testing.T, a, to *Transport, first *wire.Envelope) (release func()) {
	t.Helper()
	mute := rawSocket(t)
	if err := a.AddPeer(2, mute.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return a.Metrics().Counter(CtrDataTx) >= 1 })
	return func() {
		if err := a.AddPeer(2, to.LocalAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
}
