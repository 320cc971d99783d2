package quorum

import (
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

func BenchmarkBallotRound(b *testing.B) {
	voters := make([]radio.NodeID, 7)
	for i := range voters {
		voters[i] = radio.NodeID(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bal, err := NewBallot(voters)
		if err != nil {
			b.Fatal(err)
		}
		_ = bal.SetDistinguished(0)
		for v := 0; v < 4; v++ {
			if err := bal.Cast(radio.NodeID(v), addrspace.Entry{Status: addrspace.Free, Version: uint64(v)}); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := bal.Decide(); err != nil {
			b.Fatal(err)
		}
	}
}
