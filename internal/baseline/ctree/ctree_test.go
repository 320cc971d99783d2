package ctree

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

func TestFirstNodeIsRoot(t *testing.T) {
	rt, p := newFixture(t)
	arrive(t, rt, p, 0, 0, 500, 500)
	if err := rt.Sim.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	root, ok := p.Root()
	if !ok || root != 0 {
		t.Fatalf("Root = %v,%v, want 0,true", root, ok)
	}
	if !p.IsConfigured(0) {
		t.Error("root unconfigured")
	}
	if got := p.PoolSize(0); got != 64 {
		t.Errorf("root pool = %d, want 64", got)
	}
}

func TestCommonNodeFromNearbyCoordinator(t *testing.T) {
	rt, p := newFixture(t)
	arrive(t, rt, p, 0, 0, 500, 500)
	arrive(t, rt, p, 10*time.Second, 1, 600, 500)
	if err := rt.Sim.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p.IsConfigured(1) {
		t.Fatal("node 1 unconfigured")
	}
	if len(p.Coordinators()) != 1 {
		t.Errorf("Coordinators = %v, want just the root", p.Coordinators())
	}
}

func TestDistantNodeBecomesCoordinator(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 4; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	if err := rt.Sim.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	coords := p.Coordinators()
	if len(coords) != 2 {
		t.Fatalf("Coordinators = %v, want [0 3]", coords)
	}
	if p.PoolSize(0)+p.PoolSize(3) != 64 {
		t.Errorf("pools %d + %d != 64", p.PoolSize(0), p.PoolSize(3))
	}
}

func TestPeriodicReportsChargeSync(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 4; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	if err := rt.Sim.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Coll.Hops(metrics.CatSync) == 0 {
		t.Error("no coordinator-to-root report traffic")
	}
}

func TestRootReclaimsSilentCoordinator(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 4; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	// Give coordinator 3 time to report, then crash it.
	rt.Sim.ScheduleAt(60*time.Second, func() { p.NodeDeparting(3, false) })
	if err := rt.Sim.RunUntil(150 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Coll.Counter(CounterRootReclamations) == 0 {
		t.Fatal("root never reclaimed the silent coordinator")
	}
	if rt.Coll.Hops(metrics.CatReclamation) == 0 {
		t.Error("reclamation charged nothing")
	}
	// The root repossessed the reported pool.
	if got := p.PoolSize(0); got != 64 {
		t.Errorf("root pool after reclaim = %d, want 64", got)
	}
}

func TestStatePreservedSemantics(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 4; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	// Crash coordinator 3 before any report period elapses: unreported
	// state is lost.
	rt.Sim.ScheduleAt(35*time.Second, func() { p.NodeDeparting(3, false) })
	if err := rt.Sim.RunUntil(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p.StatePreserved(3) {
		t.Error("unreported coordinator state claimed preserved")
	}

	// Second run: crash after reporting; preserved while the root lives.
	rt2, p2 := newFixture(t)
	for i := 0; i < 4; i++ {
		arrive(t, rt2, p2, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	rt2.Sim.ScheduleAt(60*time.Second, func() { p2.NodeDeparting(3, false) })
	if err := rt2.Sim.RunUntil(70 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !p2.StatePreserved(3) {
		t.Error("reported coordinator state claimed lost while root alive")
	}
	// Kill the root: everything is lost.
	rt2.Sim.ScheduleAt(71*time.Second, func() { p2.NodeDeparting(0, false) })
	if err := rt2.Sim.RunUntil(80 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p2.StatePreserved(3) {
		t.Error("state claimed preserved after root death (single point of failure)")
	}
}

func TestGracefulDepartures(t *testing.T) {
	rt, p := newFixture(t)
	for i := 0; i < 4; i++ {
		arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	arrive(t, rt, p, 40*time.Second, 4, 320, 60) // common under coordinator 3
	// Common node leaves gracefully, then its coordinator does.
	rt.Sim.ScheduleAt(60*time.Second, func() { p.NodeDeparting(4, true) })
	rt.Sim.ScheduleAt(70*time.Second, func() { p.NodeDeparting(3, true) })
	if err := rt.Sim.RunUntil(100 * time.Second); err != nil {
		t.Fatal(err)
	}
	if rt.Coll.Hops(metrics.CatDeparture) == 0 {
		t.Error("departures charged nothing")
	}
	// Pool handed back to the parent (the root).
	if got := p.PoolSize(0); got != 64 {
		t.Errorf("root pool = %d, want 64 after coordinator return", got)
	}
}

// TestGrantToDeadRequesterIsUndone: a requester that departs before its
// grant lands takes nothing, and the granter frees the address (common
// node) or takes back the half pool it split off (new coordinator).
func TestGrantToDeadRequesterIsUndone(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int // nodes on a line 100 m apart; the last one dies
	}{
		{"common node", 2},
		{"coordinator", 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			rt, p := newFixture(t)
			for i := 0; i < c.n; i++ {
				arrive(t, rt, p, time.Duration(i*10)*time.Second, radio.NodeID(i), float64(i)*100, 0)
			}
			// The last node attempts a second after it arrives and dies
			// 5 ms later, before the reply of 2 or 6 hops lands.
			last := radio.NodeID(c.n - 1)
			rt.Sim.ScheduleAt(time.Duration(c.n-1)*10*time.Second+time.Second+5*time.Millisecond, func() { p.NodeDeparting(last, false) })
			if err := rt.Sim.RunUntil(time.Duration(c.n*10) * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := p.PoolSize(0); got != 64 {
				t.Errorf("root pool = %d, want 64", got)
			}
			if got, want := p.Nodes[0].pool.OccupiedCount(), uint32(c.n-1); got != want {
				t.Errorf("root pool occupied = %d, want %d (the dead requester's address freed)", got, want)
			}
		})
	}
}

func TestUniqueAddresses(t *testing.T) {
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
