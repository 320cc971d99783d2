package protocol

import (
	"slices"
	"testing"
	"time"

	"quorumconf/internal/mobility"
	"quorumconf/internal/netstack"
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
