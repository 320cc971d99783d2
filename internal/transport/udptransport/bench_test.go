package udptransport

import (
	"context"
	"testing"

	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// BenchmarkLoopbackExchange measures one stop-and-wait exchange over a
// loopback pair: SendWait queues the message, the destination's sender
// seals and writes it, the peer's read loop delivers and acks it, and the
// ack hands SendWait its fate. allocs/op counts both endpoints.
func BenchmarkLoopbackExchange(b *testing.B) {
	ends := [2]*Transport{}
	for i := range ends {
		tr, err := New(Config{ID: radio.NodeID(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { tr.Close(context.Background()) })
		ends[i] = tr
	}
	a, peer := ends[0], ends[1]
	if err := a.AddPeer(2, peer.LocalAddr().String()); err != nil {
		b.Fatal(err)
	}
	peer.SetHandler(func(*wire.Envelope) {})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendWait(ctx, numbered(i)); err != nil {
			b.Fatal(err)
		}
	}
}
