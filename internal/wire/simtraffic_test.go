package wire_test

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/netstack"
	"quorumconf/internal/protocol"
	"quorumconf/internal/wire"
	"quorumconf/internal/workload"
)

// TestSimulatedTrafficRoundTrips is the simulator-side conformance test of
// the wire format: every message a simulated run of the protocol delivers —
// formation, mobility, graceful and abrupt departures, reclamation — goes
// through Encode and Decode. The decoded envelope must carry the same header
// and payload type, re-encode to the same bytes (the encoding is canonical,
// so nothing it carries was lost) and survive a second trip deeply equal.
// The sent payload itself is not compared with DeepEqual: a table built by
// Split or Clone and one rebuilt by NewTable+Set differ in unexported
// representation (nil against empty free index) while holding the same
// entries.
func TestSimulatedTrafficRoundTrips(t *testing.T) {
	prep, err := workload.Prepare(workload.Scenario{
		Seed:              3,
		NumNodes:          60,
		TransmissionRange: 150,
		Speed:             20,
		ArrivalInterval:   2 * time.Second,
		DepartFraction:    0.5,
		AbruptFraction:    0.4,
	}, func(rt *protocol.Runtime) (protocol.Protocol, error) {
		return core.New(rt, core.Params{Space: addrspace.Block{Lo: 1, Hi: 256}})
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	prep.RT.Net.SetTrace(func(_ time.Duration, m netstack.Message) {
		seen[m.Type]++
		env := &wire.Envelope{
			MsgID: uint64(seen[m.Type]), Type: m.Type, Src: m.Src, Dst: m.Dst,
			Category: m.Category, Hops: m.Hops, Span: m.Span, Payload: m.Payload,
		}
		b, err := wire.Encode(env)
		if err != nil {
			t.Fatalf("%s %d->%d: encode: %v", m.Type, m.Src, m.Dst, err)
		}
		got, err := wire.Decode(b)
		if err != nil {
			t.Fatalf("%s %d->%d: decode: %v", m.Type, m.Src, m.Dst, err)
		}
		if reflect.TypeOf(got.Payload) != reflect.TypeOf(env.Payload) {
			t.Fatalf("%s: decoded payload is %T, sent %T", m.Type, got.Payload, env.Payload)
		}
		header := *got
		header.Payload = env.Payload
		if !reflect.DeepEqual(env, &header) {
			t.Fatalf("%s: header changed\n in: %+v\nout: %+v", m.Type, env, got)
		}
		b2, err := wire.Encode(got)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("%s: re-encoded to %x (%v), want %x", m.Type, b2, err, b)
		}
		if again, err := wire.Decode(b2); err != nil || !reflect.DeepEqual(got, again) {
			t.Fatalf("%s: second trip\n 1: %+v\n 2: %+v (%v)", m.Type, got, again, err)
		}
	})
	if err := prep.RT.Sim.RunUntil(prep.Horizon); err != nil {
		t.Fatal(err)
	}
	// This run delivers 33 of the 35 types; REP_REQ and REP_RSP are daemon
	// traffic and sampleEnvelopes covers them. The floor keeps the test from
	// going hollow without pinning the simulator's exact behaviour.
	t.Logf("%d message types: %v", len(seen), seen)
	if len(seen) < 25 {
		t.Errorf("run delivered only %d message types, want at least 25", len(seen))
	}
}
