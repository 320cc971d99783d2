package manetconf

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline"
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
	p, err := New(rt, baseline.Params{Space: addrspace.Block{Lo: 1, Hi: 64}})
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
	if _, err := New(nil, baseline.Params{}); err == nil {
		t.Error("nil runtime accepted")
	}
	if _, err := New(rt, baseline.Params{Space: addrspace.Block{Lo: 9, Hi: 9}}); err == nil {
		t.Error("tiny space accepted")
	}
	p, err := New(rt, baseline.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "manetconf" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestFirstNodeSelfAssigns(t *testing.T) {
	rt, p := newFixture(t)
	arrive(t, rt, p, 0, 0, 500, 500)
	if err := rt.Sim.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.IsConfigured(0) {
		t.Fatal("first node unconfigured")
	}
	if ip, _ := p.IP(0); ip != 1 {
		t.Errorf("IP = %v, want 1", ip)
	}
}

func TestConfigurationFloodsAndReplies(t *testing.T) {
	rt, p := newFixture(t)
	// A line so floods and replies have measurable hop costs.
	for i := 0; i < 5; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	if err := rt.Sim.RunUntil(80 * time.Second); err != nil {
		t.Fatal(err)
	}
	for i := radio.NodeID(0); i < 5; i++ {
		if !p.IsConfigured(i) {
			t.Errorf("node %d unconfigured", i)
		}
	}
	if p.ConfiguredCount() != 5 {
		t.Errorf("ConfiguredCount = %d", p.ConfiguredCount())
	}
	// Full replication means every config floods the network: config
	// traffic must grow superlinearly vs the quorum protocol's local
	// exchanges. A loose lower bound: at least 2 floods of >=2 nodes for
	// each of the 4 non-first configs.
	if got := rt.Coll.Hops(metrics.CatConfig); got < 20 {
		t.Errorf("config hops = %d, suspiciously low for flooding protocol", got)
	}
	// Unique addresses.
	seen := map[addrspace.Addr]bool{}
	for i := radio.NodeID(0); i < 5; i++ {
		ip, _ := p.IP(i)
		if seen[ip] {
			t.Errorf("duplicate address %v", ip)
		}
		seen[ip] = true
	}
}

func TestLatencyGrowsWithDiameter(t *testing.T) {
	mkLine := func(n int) float64 {
		rt, p := newFixture(t)
		for i := 0; i < n; i++ {
			arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
		}
		if err := rt.Sim.RunUntil(time.Duration(n*10+30) * time.Second); err != nil {
			t.Fatal(err)
		}
		return rt.Coll.Summarize(protocol.SampleConfigLatency).Max
	}
	short := mkLine(3)
	long := mkLine(9)
	if long <= short {
		t.Errorf("latency did not grow with diameter: %v vs %v", short, long)
	}
}

func TestGracefulDepartureFloodsRelease(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 3; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	rt.Sim.ScheduleAt(40*time.Second, func() { p.NodeDeparting(2, true) })
	if err := rt.Sim.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.IsConfigured(2) {
		t.Error("departed node still configured")
	}
	if rt.Coll.Hops(metrics.CatDeparture) == 0 {
		t.Error("graceful departure charged nothing (full replication needs a flood)")
	}
	// The address is reusable.
	arrive(t, rt, p, 61*time.Second, 9, 150, 50)
	if err := rt.Sim.RunUntil(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.IsConfigured(9) {
		t.Error("newcomer unconfigured after release")
	}
}

func TestAbruptDepartureCleanedLazily(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 3; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	rt.Sim.ScheduleAt(40*time.Second, func() { p.NodeDeparting(2, false) })
	arrive(t, rt, p, 50*time.Second, 9, 150, 50) // next config notices the dead node
	if err := rt.Sim.RunUntil(80 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Coll.Counter(CounterCleanups) == 0 {
		t.Error("dead node never cleaned up")
	}
	if rt.Coll.Hops(metrics.CatReclamation) == 0 {
		t.Error("cleanup charged nothing")
	}
}

func TestIPAccessors(t *testing.T) {
	_, p := newFixture(t)
	if _, ok := p.IP(42); ok {
		t.Error("unknown node has an IP")
	}
	if p.IsConfigured(42) {
		t.Error("unknown node configured")
	}
}
