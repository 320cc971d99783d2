package wire

import (
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// benchEnvelopes is one envelope per message class the codec treats
// differently: the six fixed-field messages of a member allocation plus its
// span, a payload-free request, and a replica carrying a 4000-entry table.
func benchEnvelopes(tb testing.TB) []*Envelope {
	tb.Helper()
	table, err := addrspace.NewTable(addrspace.Block{Lo: 1 << 24, Hi: 1<<24 + 8191})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		if _, err := table.Mark(table.Block().Lo+addrspace.Addr(i), addrspace.Occupied); err != nil {
			tb.Fatal(err)
		}
	}
	tag := msg.NetTag{Addr: 1 << 24, Nonce: 0xdeadbeef}
	env := func(typ string, cat metrics.Category, p any) *Envelope {
		return &Envelope{MsgID: 4711, Type: typ, Src: 1, Dst: 3, Category: cat, Hops: 1, Span: 0x0002_0000_0000_0063, Payload: p}
	}
	return []*Envelope{
		env(msg.TQuorumClt, metrics.CatConfig, msg.QuorumClt{BallotID: 1234, Owner: 1, Addr: 1<<24 + 2000, Allocator: 1}),
		env(msg.TQuorumCfm, metrics.CatConfig, msg.QuorumCfm{BallotID: 1234, Entry: addrspace.Entry{Version: 6}, HasReplica: true}),
		env(msg.TQuorumUpd, metrics.CatConfig, msg.QuorumUpd{Owner: 1, Addr: 1<<24 + 2000, Entry: addrspace.Entry{Status: addrspace.Occupied, Version: 7}}),
		env(msg.TUpdateLoc, metrics.CatConfig, msg.UpdateLoc{Configurer: 1, ConfigurerIP: 1 << 24, Addr: 1<<24 + 2000}),
		env(msg.TComCfg, metrics.CatConfig, msg.ComCfg{Addr: 1<<24 + 2000, NetworkID: tag, Configurer: 1, PathHops: 2}),
		env(msg.TRepReq, metrics.CatSync, msg.RepReq{}),
		env(msg.TReplicaDist, metrics.CatSync, msg.ReplicaDist{Info: msg.HolderInfo{
			Owner: 1, OwnerIP: 1 << 24, Pool: addrspace.NewPool(table), Holders: []radio.NodeID{1, 2, 3, 4, 5},
		}}),
	}
}

func BenchmarkWireEncode(b *testing.B) {
	for _, env := range benchEnvelopes(b) {
		b.Run(env.Type, func(b *testing.B) {
			buf, err := Encode(env)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf, _ = AppendEncode(buf[:0], env)
			}
		})
	}
}

func BenchmarkWireDecode(b *testing.B) {
	for _, env := range benchEnvelopes(b) {
		b.Run(env.Type, func(b *testing.B) {
			frame, err := Encode(env)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(frame)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(frame); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAuthSealOpen seals one datagram-sized frame (an encoded
// QUORUM_CFM) into a reused buffer and opens it again, once through the
// package functions, which key the HMAC on every call, and once through an
// Auth keyed before the loop, as each transport goroutine holds one.
func BenchmarkAuthSealOpen(b *testing.B) {
	inner, err := Encode(benchEnvelopes(b)[1])
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, AuthOverhead+len(inner))
	b.Run("per_call_key", func(b *testing.B) {
		b.SetBytes(int64(len(inner)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendSeal(buf[:0], testKey, inner)
			if _, err := Open(testKey, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("keyed_once", func(b *testing.B) {
		auth, err := NewAuth(testKey)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(inner)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = auth.AppendSeal(buf[:0], inner)
			if _, err := auth.Open(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestCodecAllocs pins the allocation profile of the per-datagram path:
// encoding into a reused buffer allocates nothing, decoding a fixed-field
// message allocates the envelope and the boxed payload, and a payload-free
// message only the envelope.
func TestCodecAllocs(t *testing.T) {
	for _, env := range benchEnvelopes(t) {
		if env.Type == msg.TReplicaDist {
			continue // grows with the table it carries
		}
		buf, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		frame := append([]byte(nil), buf...)
		if n := testing.AllocsPerRun(200, func() { buf, _ = AppendEncode(buf[:0], env) }); n != 0 {
			t.Errorf("%s: AppendEncode into a reused buffer: %v allocs/op, want 0", env.Type, n)
		}
		want := 2.0
		if env.Type == msg.TRepReq {
			want = 1
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = Decode(frame) }); n != want {
			t.Errorf("%s: Decode: %v allocs/op, want %v", env.Type, n, want)
		}
	}
}
