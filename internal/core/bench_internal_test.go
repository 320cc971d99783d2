package core

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/mobility"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// BenchmarkConfigure50Nodes measures end-to-end protocol throughput: a
// full 50-node static network configured from scratch per iteration.
func BenchmarkConfigure50Nodes(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: int64(i + 1), TransmissionRange: 200})
		if err != nil {
			b.Fatal(err)
		}
		p, err := New(rt, Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
		if err != nil {
			b.Fatal(err)
		}
		rng := rt.Sim.Rand()
		for n := 0; n < 50; n++ {
			id := radio.NodeID(n)
			pos := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			at := time.Duration(n) * 2 * time.Second
			rt.Sim.ScheduleAt(at, func() {
				if err := rt.Topo.Add(id, mobility.Static(pos)); err != nil {
					return
				}
				rt.Net.InvalidateSnapshot()
				p.NodeArrived(id)
			})
		}
		if err := rt.Sim.RunUntil(160 * time.Second); err != nil {
			b.Fatal(err)
		}
		if p.ConfiguredCount() == 0 {
			b.Fatal("nothing configured")
		}
	}
}

// benchConfigure runs the 50-node configure workload once per iteration
// with the given tracer — the seam the tracer-overhead benchmarks below use
// to compare a nil tracer against an attached one.
func benchConfigure(b *testing.B, tracer *obs.Tracer) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: int64(i + 1), TransmissionRange: 200, Tracer: tracer})
		if err != nil {
			b.Fatal(err)
		}
		p, err := New(rt, Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
		if err != nil {
			b.Fatal(err)
		}
		rng := rt.Sim.Rand()
		for n := 0; n < 50; n++ {
			id := radio.NodeID(n)
			pos := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			at := time.Duration(n) * 2 * time.Second
			rt.Sim.ScheduleAt(at, func() {
				if err := rt.Topo.Add(id, mobility.Static(pos)); err != nil {
					return
				}
				rt.Net.InvalidateSnapshot()
				p.NodeArrived(id)
			})
		}
		if err := rt.Sim.RunUntil(160 * time.Second); err != nil {
			b.Fatal(err)
		}
		if p.ConfiguredCount() == 0 {
			b.Fatal("nothing configured")
		}
	}
}

// BenchmarkTracerDisabled is the nil-tracer fast path: every instrumented
// seam fills an Event struct and takes one branch in Runtime.Trace. The
// acceptance bar is <5% overhead versus BenchmarkConfigure50Nodes.
func BenchmarkTracerDisabled(b *testing.B) {
	benchConfigure(b, nil)
}

// BenchmarkTracerEnabledRing measures the same workload with a tracer
// attached to a bounded ring, the configuration quorumd runs with — the
// enabled-path counterpart to BenchmarkTracerDisabled, recorded into
// BENCH_sweeps.json as tracer_event_ring.
func BenchmarkTracerEnabledRing(b *testing.B) {
	ring := obs.NewRing(obs.DefaultRingSize)
	benchConfigure(b, obs.NewTracer(nil, ring))
}
