package core

import (
	"strings"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/msg"
	"quorumconf/internal/netstack"
	"quorumconf/internal/radio"
)

// TestAdministratorRoutedDeparture: a common node drifts >3 hops from its
// configurer, registers with an administrator head (UPDATE_LOC), then
// departs gracefully near that administrator; the address must still be
// marked free at the original allocator's replicas.
func TestAdministratorRoutedDeparture(t *testing.T) {
	h := newHarness(t, smallSpace())
	for i := 0; i < 7; i++ {
		h.arriveAt(time.Duration(i*20)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	// Node 10 joins near head 0, then walks to the far end (near head 6).
	path, err := mobility.NewPath(
		[]time.Duration{160 * time.Second, 300 * time.Second},
		[]mobility.Point{{X: 60, Y: 0}, {X: 620, Y: 40}},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.arriveModel(150*time.Second, 10, path)
	h.runUntil(320 * time.Second)

	nd10 := h.p.nodes[radio.NodeID(10)]
	if nd10 == nil || !nd10.hasIP {
		t.Fatal("node 10 unconfigured")
	}
	if !nd10.hasAdmin {
		t.Fatal("node 10 has no administrator after the walk")
	}
	ip10 := nd10.ip
	allocator := nd10.configurer
	h.departAt(321*time.Second, 10, true)
	h.runUntil(360 * time.Second)

	freed := false
	for _, id := range h.p.Heads() {
		nd := h.p.nodes[id]
		if e, ok := nd.localEntry(allocator, ip10); ok && e.Status == addrspace.Free {
			freed = true
		}
	}
	if !freed {
		t.Errorf("address %v not freed anywhere after administrator-routed departure", ip10)
	}
	h.assertNoConflicts()
}

// TestHelloCostScalesWithNodes: the analytic hello accounting charges one
// transmission per node per interval.
func TestHelloCostScalesWithNodes(t *testing.T) {
	run := func(n int) int64 {
		h := newHarness(t, smallSpace())
		for i := 0; i < n; i++ {
			h.arriveAt(0, radio.NodeID(i), 400+float64(i)*20, 500)
		}
		h.runUntil(60 * time.Second)
		return h.rt.Coll.Hops(metrics.CatHello)
	}
	small, big := run(3), run(9)
	// 3x the nodes should give ~3x the hello transmissions.
	if big < 2*small || big > 4*small {
		t.Errorf("hello cost did not scale with node count: %d vs %d", small, big)
	}
}

// TestAgentRelayTrace: the depleted allocator's relay really flows
// AGENT_FWD to the configurer and AGENT_CFG back.
func TestAgentRelayTrace(t *testing.T) {
	// Space of 8: head 0 keeps [1,4] (one spare after its two members),
	// head 3 gets [5,8] and is exhausted by three joiners; the fourth
	// joiner must be served by head 0 through the agent relay.
	h := newHarness(t, Params{Space: addrspace.Block{Lo: 1, Hi: 8}, DisableBorrowing: true})
	var kinds []string
	h.rt.Net.SetTrace(func(_ time.Duration, m netstack.Message) {
		kinds = append(kinds, m.Type)
	})
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	h.arriveAt(80*time.Second, 4, 320, 60)
	h.arriveAt(100*time.Second, 5, 340, 30)
	h.arriveAt(120*time.Second, 6, 280, 70)
	h.arriveAt(140*time.Second, 7, 360, 50)
	h.runUntil(240 * time.Second)
	if !h.p.IsConfigured(7) {
		t.Error("relayed requestor never configured")
	}

	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, msg.TAgentFwd) {
		t.Error("no AGENT_FWD in trace")
	}
	if !strings.Contains(joined, msg.TAgentCfg) {
		t.Error("no AGENT_CFG in trace")
	}
}

// TestStopTicking halts the maintenance loop so an idle simulator drains.
func TestStopTicking(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.runUntil(20 * time.Second)
	h.p.StopTicking()
	// The only remaining events are finite; Run must terminate.
	if err := h.rt.Sim.Run(); err != nil {
		t.Fatalf("Run after StopTicking: %v", err)
	}
}

// TestSuspectCancelledWhenMemberReturns: a QDSet member that becomes
// unreachable briefly (mobility) is not excised if it comes back within Td.
func TestSuspectCancelledWhenMemberReturns(t *testing.T) {
	params := smallSpace()
	params.Td = 10 * time.Second // long Td so the round trip fits inside it
	h := newHarness(t, params)
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	// Head 3 wanders out of reach briefly and returns within Td.
	path, err := mobility.NewPath(
		[]time.Duration{100 * time.Second, 103 * time.Second, 106 * time.Second, 109 * time.Second},
		[]mobility.Point{{X: 300}, {X: 700}, {X: 700}, {X: 300}},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.arriveModel(60*time.Second, 3, path)
	h.runUntil(140 * time.Second)

	if got := h.rt.Coll.Counter(CounterQuorumShrinks); got != 0 {
		t.Errorf("quorum shrank %d times despite member returning within Td", got)
	}
	if h.p.QDSetSize(0) == 0 {
		t.Error("head 0 lost its QDSet")
	}
}

// TestEffectiveSpaceConsistency: a head's effective space equals its own
// pool plus the sum of its replicas, and HoldersOf always contains self.
func TestEffectiveSpaceConsistency(t *testing.T) {
	h := newHarness(t, Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
	for i := 0; i < 7; i++ {
		h.arriveAt(time.Duration(i*20)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
	h.runUntil(200 * time.Second)
	for _, id := range h.p.Heads() {
		nd := h.p.nodes[id]
		want := nd.pools.Size()
		for _, rep := range nd.replicas {
			want += rep.Size()
		}
		if got := h.p.EffectiveSpaceSize(id); got != want {
			t.Errorf("EffectiveSpaceSize(%d) = %d, want %d", id, got, want)
		}
		holders := h.p.HoldersOf(id)
		foundSelf := false
		for _, hd := range holders {
			if hd == id {
				foundSelf = true
			}
		}
		if !foundSelf {
			t.Errorf("HoldersOf(%d) = %v missing self", id, holders)
		}
	}
}
