package protocol

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/mobility"
	"quorumconf/internal/netstack"
	"quorumconf/internal/radio"
)

func TestNewRuntimeDefaults(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{Seed: 1, TransmissionRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Sim == nil || rt.Topo == nil || rt.Net == nil || rt.Coll == nil {
		t.Fatal("runtime has nil components")
	}
	if got := rt.Net.PerHop(); got != DefaultPerHop {
		t.Errorf("PerHop = %v, want default %v", got, DefaultPerHop)
	}
	if got := rt.Topo.Range(); got != 150 {
		t.Errorf("Range = %v, want 150", got)
	}
}

func TestNewRuntimeCustomPerHop(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{Seed: 1, TransmissionRange: 100, PerHopDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Net.PerHop(); got != 20*time.Millisecond {
		t.Errorf("PerHop = %v, want 20ms", got)
	}
}

func TestNewRuntimeValidation(t *testing.T) {
	if _, err := NewRuntime(RuntimeConfig{Seed: 1, TransmissionRange: 0}); err == nil {
		t.Error("zero transmission range accepted")
	}
	if _, err := NewRuntime(RuntimeConfig{Seed: 1, TransmissionRange: -5}); err == nil {
		t.Error("negative transmission range accepted")
	}
}

func TestRemoveNode(t *testing.T) {
	rt, err := NewRuntime(RuntimeConfig{Seed: 1, TransmissionRange: 150})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Topo.Add(1, mobility.Static(mobility.Point{X: 10})); err != nil {
		t.Fatal(err)
	}
	if err := rt.Topo.Add(2, mobility.Static(mobility.Point{X: 20})); err != nil {
		t.Fatal(err)
	}
	delivered := false
	_ = rt.Net.Register(1, func(netstack.Message) { delivered = true })

	rt.RemoveNode(1)
	if slices.Contains(rt.Topo.Nodes(), 1) {
		t.Error("node still in topology after RemoveNode")
	}
	// Messages to the removed node go nowhere.
	if _, ok := rt.Net.Unicast(2, 1, netstack.Message{Category: 1}); ok {
		t.Error("unicast to removed node reported reachable")
	}
	if err := rt.Sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("message delivered to removed node")
	}
	// Snapshot was invalidated.
	if rt.Net.Snapshot().Contains(1) {
		t.Error("snapshot still contains removed node")
	}
}

func TestRuntimeDeterministicSeed(t *testing.T) {
	draws := func(seed int64) []int64 {
		rt, err := NewRuntime(RuntimeConfig{Seed: seed, TransmissionRange: 100})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int64, 5)
		for i := range out {
			out[i] = rt.Sim.Rand().Int63()
		}
		return out
	}
	a, b := draws(9), draws(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed diverged")
		}
	}
}

// fixedIPs is a Protocol whose nodes hold the addresses it maps them to.
type fixedIPs map[radio.NodeID]addrspace.Addr

func (f fixedIPs) Name() string                      { return "fixed" }
func (f fixedIPs) NodeArrived(radio.NodeID)          {}
func (f fixedIPs) NodeDeparting(radio.NodeID, bool)  {}
func (f fixedIPs) IsConfigured(id radio.NodeID) bool { _, ok := f[id]; return ok }
func (f fixedIPs) IP(id radio.NodeID) (addrspace.Addr, bool) {
	a, ok := f[id]
	return a, ok
}

func TestConflicts(t *testing.T) {
	topo, err := radio.NewTopology(150)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes 3, 1 and 2 form a chain 100 m apart; 4 and 5 are islands of
	// their own, 1 km away from it and from each other.
	for id, p := range map[radio.NodeID]mobility.Point{
		3: {X: 0}, 1: {X: 100}, 2: {X: 200}, 4: {X: 1000, Y: 1000}, 5: {Y: 1000},
	} {
		if err := topo.Add(id, mobility.Static(p)); err != nil {
			t.Fatal(err)
		}
	}
	// 3 and 1 reach each other over 2 and share 7, which island 4 holds
	// too; 2 shares 9 only with island 5; 6 holds no address.
	ips := fixedIPs{3: 7, 1: 7, 4: 7, 2: 9, 5: 9}
	got := Conflicts(ips, []radio.NodeID{6, 5, 4, 3, 2, 1}, topo.Snapshot(0))
	want := map[addrspace.Addr][]radio.NodeID{7: {1, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Conflicts = %v, want %v", got, want)
	}
}
