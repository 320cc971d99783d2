package udptransport

import (
	"context"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/wire"
)

// TestSpanSurvivesSocket pins that a causal span identifier rides a data
// frame across the socket unchanged.
func TestSpanSurvivesSocket(t *testing.T) {
	a, b := newPair(t)
	span := obs.MintSpan(1, 42)

	got := make(chan uint64, 1)
	b.SetHandler(func(env *wire.Envelope) { got <- env.Span })
	err := a.Send(context.Background(), &wire.Envelope{
		Type: msg.TRepReq, Dst: 2, Category: metrics.CatSync, Span: span, Payload: msg.RepReq{},
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case s := <-got:
		if s != span {
			t.Errorf("delivered span %x, want %x", s, span)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery")
	}
}

// TestSpanSurvivesBatchAndRetry drives span-carrying envelopes through the
// worst of the wire path at once — coalesced batch frames, chaos drops
// forcing ARQ retransmissions — and asserts every span arrives intact.
// It also pins that transmitted batch frames record their occupancy into
// the configured histogram registry.
func TestSpanSurvivesBatchAndRetry(t *testing.T) {
	hists := obs.NewHistograms()
	// At this drop rate a message survives by the length of the give-up
	// horizon, RetryBase·(2^maxAttempts − 1) = 6.3s, which a measured
	// round trip fills with a dozen copies.
	a, err := New(Config{
		ID:              1,
		DropRate:        0.4,
		RetryBase:       100 * time.Millisecond,
		BatchFlushBytes: 16 * 1024,
		Histograms:      hists,
	})
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

	const n = 40
	var mu sync.Mutex
	got := make(map[uint64]bool)
	b.SetHandler(func(env *wire.Envelope) {
		mu.Lock()
		defer mu.Unlock()
		if env.Span != 0 {
			got[env.Span] = true
		}
	})

	// Until an exchange is acknowledged on its first copy, each one starts
	// from RetryBase and gets only maxAttempts copies; one in 250 would be
	// lost at this drop rate. Measure the round trip first.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for sampled := false; !sampled; {
		if err := a.SendWait(ctx, numbered(0)); ctx.Err() != nil {
			t.Fatalf("no round trip measured: %v", err)
		}
		rtt, ok := hists.Snapshot(obs.HistTransportRTT)
		sampled = ok && rtt.Count > 0
	}

	want := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		span := obs.MintSpan(1, uint64(i+1))
		want[span] = true
		err := a.Send(context.Background(), &wire.Envelope{
			Type: msg.TQuorumClt, Dst: 2, Category: metrics.CatConfig, Span: span,
			Payload: msg.QuorumClt{BallotID: uint64(i + 1), Owner: 1, Addr: 7, Allocator: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for span := range want {
		if !got[span] {
			t.Errorf("span %x lost in transit", span)
		}
	}
	batches := a.Metrics().Counter(CtrBatchTx)
	if batches == 0 {
		t.Fatal("no batch frames transmitted; the test did not exercise coalescing")
	}
	snap, ok := hists.Snapshot(obs.HistBatchOccupancy)
	if !ok {
		t.Fatal("batch occupancy histogram not recorded")
	}
	if snap.Count != uint64(batches) {
		t.Errorf("occupancy observations = %d, want one per batch frame (%d)", snap.Count, batches)
	}
}
