package buddy

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

func newFixture(t *testing.T) (*protocol.Runtime, *Protocol) {
	t.Helper()
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(rt, Params{Space: addrspace.Block{Lo: 1, Hi: 64}})
	if err != nil {
		t.Fatal(err)
	}
	return rt, p
}

func arrive(t *testing.T, rt *protocol.Runtime, p *Protocol, at time.Duration, id radio.NodeID, x, y float64) {
	t.Helper()
	rt.Sim.ScheduleAt(at, func() {
		if err := rt.Topo.Add(id, mobility.Static(mobility.Point{X: x, Y: y})); err != nil {
			t.Errorf("add: %v", err)
			return
		}
		rt.Net.InvalidateSnapshot()
		p.NodeArrived(id)
	})
}

func TestNewValidation(t *testing.T) {
	rt, _ := newFixture(t)
	if _, err := New(nil, Params{}); err == nil {
		t.Error("nil runtime accepted")
	}
	if _, err := New(rt, Params{Space: addrspace.Block{Lo: 9, Hi: 9}}); err == nil {
		t.Error("tiny space accepted")
	}
	p, err := New(rt, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "buddy" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestBuddySplitOnArrival(t *testing.T) {
	rt, p := newFixture(t)
	arrive(t, rt, p, 0, 0, 500, 500)
	arrive(t, rt, p, 10*time.Second, 1, 600, 500)
	if err := rt.Sim.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.IsConfigured(0) || !p.IsConfigured(1) {
		t.Fatal("nodes unconfigured")
	}
	// Disjoint halves of the 64-address space.
	if b0, b1 := p.BlockSize(0), p.BlockSize(1); b0+b1 != 64 {
		t.Errorf("blocks %d + %d != 64", b0, b1)
	}
	ip0, _ := p.IP(0)
	ip1, _ := p.IP(1)
	if ip0 == ip1 {
		t.Error("duplicate address")
	}
}

func TestConfigurationIsCheap(t *testing.T) {
	// The scheme's selling point: one-hop block split, ~2 hop latency.
	rt, p := newFixture(t)
	for i := 0; i < 6; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	if err := rt.Sim.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	lat := rt.Coll.Summarize(SampleConfigLatency)
	if lat.Count != 6 {
		t.Fatalf("latency samples = %d, want 6", lat.Count)
	}
	if lat.Mean > 4 {
		t.Errorf("mean latency = %.1f, want cheap 1-hop splits", lat.Mean)
	}
}

func TestPeriodicSyncChargesQuadratically(t *testing.T) {
	run := func(n int) int64 {
		rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: 300})
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(rt, Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			arrive(t, rt, p, time.Duration(i)*time.Second, radio.NodeID(i), float64(i%5)*120, float64(i/5)*120)
		}
		if err := rt.Sim.RunUntil(time.Duration(n)*time.Second + 60*time.Second); err != nil {
			t.Fatal(err)
		}
		return rt.Coll.Hops(metrics.CatSync)
	}
	small, big := run(5), run(20)
	if big < 8*small {
		// 4x nodes -> ~16x sync traffic (n floods of n transmissions).
		t.Errorf("sync traffic not superlinear: %d vs %d", small, big)
	}
}

func TestGracefulDepartureReturnsBlockToBuddy(t *testing.T) {
	rt, p := newFixture(t)
	arrive(t, rt, p, 0, 0, 500, 500)
	arrive(t, rt, p, 10*time.Second, 1, 600, 500)
	rt.Sim.ScheduleAt(30*time.Second, func() { p.NodeDeparting(1, true) })
	if err := rt.Sim.RunUntil(50 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.IsConfigured(1) {
		t.Error("departed node still configured")
	}
	if got := p.BlockSize(0); got != 64 {
		t.Errorf("buddy block = %d, want merged 64", got)
	}
	if rt.Coll.Hops(metrics.CatDeparture) == 0 {
		t.Error("departure charged nothing")
	}
}

func TestAbruptDepartureBuddyReclaims(t *testing.T) {
	rt, p := newFixture(t)
	arrive(t, rt, p, 0, 0, 500, 500)
	arrive(t, rt, p, 10*time.Second, 1, 600, 500)
	rt.Sim.ScheduleAt(30*time.Second, func() { p.NodeDeparting(1, false) })
	if err := rt.Sim.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Coll.Counter(CounterBuddyReclaims) == 0 {
		t.Error("buddy never reclaimed the block")
	}
	if got := p.BlockSize(0); got != 64 {
		t.Errorf("buddy block = %d, want reclaimed 64", got)
	}
	if rt.Coll.Hops(metrics.CatReclamation) == 0 {
		t.Error("reclamation charged nothing")
	}
}

func TestRemoteBlockTransferWhenNeighborExhausted(t *testing.T) {
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(rt, Params{Space: addrspace.Block{Lo: 1, Hi: 4}})
	if err != nil {
		t.Fatal(err)
	}
	// Chain: node 0 (space 4) -> 1 (2) -> 2 (1, unsplittable).
	// Node 3 arrives next to node 2, which must fetch a block remotely.
	arrive(t, rt, p, 0, 0, 0, 0)
	arrive(t, rt, p, 10*time.Second, 1, 100, 0)
	arrive(t, rt, p, 20*time.Second, 2, 200, 0)
	arrive(t, rt, p, 30*time.Second, 3, 300, 0)
	if err := rt.Sim.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.IsConfigured(3) {
		t.Fatal("node 3 unconfigured")
	}
	if rt.Coll.Counter(CounterBlockTransfers) == 0 {
		t.Error("no remote block transfer despite exhausted neighbor")
	}
}

func TestUniqueAddressesGrid(t *testing.T) {
	rt, p := newFixture(t)
	id := radio.NodeID(0)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			arrive(t, rt, p, time.Duration(int(id)*5)*time.Second, id, float64(c)*110, float64(r)*110)
			id++
		}
	}
	if err := rt.Sim.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	seen := map[addrspace.Addr]radio.NodeID{}
	for n := radio.NodeID(0); n < id; n++ {
		ip, ok := p.IP(n)
		if !ok {
			t.Errorf("node %d unconfigured", n)
			continue
		}
		if prev, dup := seen[ip]; dup {
			t.Errorf("nodes %d and %d share %v", prev, n, ip)
		}
		seen[ip] = n
	}
}
