package core

import (
	"fmt"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/mobility"
	"quorumconf/internal/msg"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

// buildFor adapts the harnessless workload runner to this package.
func buildFor(params Params) workload.BuildFunc {
	return func(rt *protocol.Runtime) (protocol.Protocol, error) {
		return New(rt, params)
	}
}

// TestPropertyStaticNetworksConverge: over many random static topologies,
// every node in a component containing a head ends configured, with no
// same-component duplicates — the protocol's basic liveness + safety.
func TestPropertyStaticNetworksConverge(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := workload.Run(workload.Scenario{
				Seed:              seed,
				NumNodes:          35,
				TransmissionRange: 220,
				Speed:             0,
				ArrivalInterval:   2 * time.Second,
				SettleTime:        90 * time.Second,
			}, buildFor(Params{Space: addrspace.Block{Lo: 1, Hi: 512}}))
			if err != nil {
				t.Fatal(err)
			}
			p := res.Proto.(*Protocol)
			for i := radio.NodeID(0); i < 35; i++ {
				if !p.IsConfigured(i) {
					t.Errorf("node %d unconfigured (role %v)", i, p.Role(i))
				}
			}
			if c := p.AddressConflicts(); len(c) != 0 {
				t.Errorf("conflicts: %v", c)
			}
			// Structural invariants: every common node has an alive,
			// reachable-or-recorded configurer; every head has a pool.
			for id, nd := range p.nodes {
				if !nd.alive {
					continue
				}
				switch nd.role {
				case RoleCommon:
					if !nd.hasConfigurer {
						t.Errorf("common node %d has no configurer", id)
					}
				case RoleHead:
					if nd.pools == nil || nd.pools.Size() == 0 {
						t.Errorf("head %d has no pool", id)
					}
					if !nd.pools.Contains(nd.ip) {
						t.Errorf("head %d's own IP %v outside its pool %v", id, nd.ip, nd.pools.Blocks())
					}
				}
			}
		})
	}
}

// TestStressLossAndChurnCombined: lossy links, mobility and abrupt
// departures together. The protocol must neither deadlock nor hand out
// duplicates; configuration coverage may degrade but not collapse.
func TestStressLossAndChurnCombined(t *testing.T) {
	res, err := workload.Run(workload.Scenario{
		Seed:              99,
		NumNodes:          50,
		TransmissionRange: 250,
		Speed:             20,
		ArrivalInterval:   2 * time.Second,
		DepartFraction:    0.3,
		AbruptFraction:    0.7,
		LossRate:          0.05,
		SettleTime:        180 * time.Second,
	}, buildFor(Params{Space: addrspace.Block{Lo: 1, Hi: 512}}))
	if err != nil {
		t.Fatal(err)
	}
	p := res.Proto.(*Protocol)
	if c := p.AddressConflicts(); len(c) != 0 {
		t.Errorf("conflicts under loss+churn: %v", c)
	}
	alive, configured := 0, 0
	for i := radio.NodeID(0); i < 50; i++ {
		if p.Alive(i) {
			alive++
			if p.IsConfigured(i) {
				configured++
			}
		}
	}
	if alive == 0 {
		t.Fatal("no survivors")
	}
	if float64(configured) < 0.75*float64(alive) {
		t.Errorf("coverage collapsed: %d/%d configured", configured, alive)
	}
}

// TestStressRepeatedPartitionCycles: a head-plus-member pair repeatedly
// leaves and rejoins; each cycle must converge back to one conflict-free
// network.
func TestStressRepeatedPartitionCycles(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	// Node 3 (a head) oscillates: 3 away-and-back cycles of 120s each.
	times := []time.Duration{100 * time.Second}
	points := []struct{ X, Y float64 }{{300, 0}}
	base := 100 * time.Second
	for c := 0; c < 3; c++ {
		times = append(times,
			base+20*time.Second, base+60*time.Second, base+80*time.Second, base+120*time.Second)
		points = append(points,
			struct{ X, Y float64 }{3300, 0}, struct{ X, Y float64 }{3300, 0},
			struct{ X, Y float64 }{300, 0}, struct{ X, Y float64 }{300, 0})
		base += 120 * time.Second
	}
	mtimes := times
	mpts := make([]mobility.Point, len(points))
	for i, p := range points {
		mpts[i] = mobility.Point{X: p.X, Y: p.Y}
	}
	path, err := mobility.NewPath(mtimes, mpts)
	if err != nil {
		t.Fatal(err)
	}
	h.arriveModel(50*time.Second, 3, path)
	h.runUntil(base + 120*time.Second)

	h.assertNoConflicts()
	if !h.p.IsConfigured(3) {
		t.Errorf("oscillating node unconfigured at the end (role %v)", h.p.Role(3))
	}
	// All nodes in the final single component share one network tag.
	tags := map[msg.NetTag]bool{}
	for i := radio.NodeID(0); i <= 3; i++ {
		if tag, ok := h.p.NetworkTag(i); ok {
			tags[tag] = true
		}
	}
	if len(tags) > 1 {
		t.Errorf("multiple network tags after reunification: %v", tags)
	}
}
