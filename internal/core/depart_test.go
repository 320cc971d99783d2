package core

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// lineOfHeads builds the standard fixture: heads at 0, 3, 6 over a 7-node
// line (100m spacing), all mutually within 3 hops of their neighbors.
func lineOfHeads(t *testing.T, h *harness) {
	t.Helper()
	for i := 0; i < 7; i++ {
		h.arriveAt(time.Duration(i*20)*time.Second, radio.NodeID(i), float64(i)*100, 0)
	}
}

func TestHeadDepartureToSmallestBlockWhenConfigurerDead(t *testing.T) {
	h := newHarness(t, smallSpace())
	lineOfHeads(t, h)
	// Head 6's configurer is head 3. Kill 3 abruptly, then let 6 leave
	// gracefully: its block must go to the QDSet member with the smallest
	// IP block (head 0, after reclamation machinery has run).
	h.departAt(150*time.Second, 3, false)
	h.departAt(220*time.Second, 6, true)
	h.runUntil(260 * time.Second)

	if h.p.Alive(6) {
		t.Fatal("head 6 still alive")
	}
	// Head 0 absorbed 6's block (it was the only remaining head).
	nd0 := h.p.nodes[radio.NodeID(0)]
	if nd0.pools == nil {
		t.Fatal("head 0 lost its pools")
	}
	total := nd0.pools.Size()
	if total <= 32 {
		t.Errorf("head 0 owns %d addresses; block from departing head 6 not returned", total)
	}
	h.assertNoConflicts()
}

func TestVacateBroadcastWhenAllocatorDead(t *testing.T) {
	h := newHarness(t, smallSpace())
	lineOfHeads(t, h)
	h.arriveAt(150*time.Second, 10, 620, 60) // common under head 6
	h.runUntil(170 * time.Second)
	ip10, ok := h.p.IP(10)
	if !ok {
		t.Fatal("node 10 unconfigured")
	}
	// Kill the allocator (head 6); node 10's graceful departure must
	// still get the address freed at a surviving replica holder via the
	// adjacent-heads broadcast.
	h.departAt(180*time.Second, 6, false)
	h.departAt(240*time.Second, 10, true)
	h.runUntil(300 * time.Second)

	freed := false
	for _, id := range h.p.Heads() {
		nd := h.p.nodes[id]
		if e, ok := nd.localEntry(radio.NodeID(6), ip10); ok && e.Status == addrspace.Free {
			freed = true
		}
	}
	if !freed {
		t.Errorf("address %v not freed at any replica holder after allocator death", ip10)
	}
}

func TestUponLeaveDepartureStillFreesAddress(t *testing.T) {
	params := smallSpace()
	params.UponLeaveOnly = true
	h := newHarness(t, params)
	h.arriveAt(0, 0, 500, 500)
	h.arriveAt(20*time.Second, 1, 600, 500)
	h.departAt(50*time.Second, 1, true)
	h.runUntil(80 * time.Second)

	if h.rt.Coll.Hops(metrics.CatMovement) != 0 {
		t.Error("upon-leave scheme charged movement traffic")
	}
	if h.rt.Coll.Hops(metrics.CatDeparture) == 0 {
		t.Error("departure charged nothing")
	}
	// Address reusable.
	h.arriveAt(81*time.Second, 2, 600, 500)
	h.runUntil(110 * time.Second)
	if !h.p.IsConfigured(2) {
		t.Error("fresh arrival not configured from returned address")
	}
	h.assertNoConflicts()
}

func TestDoubleDepartureIsNoop(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.departAt(30*time.Second, 0, true)
	h.departAt(31*time.Second, 0, true)  // second call: node already gone
	h.departAt(32*time.Second, 0, false) // and again, abruptly
	h.runUntil(60 * time.Second)
	if got := h.rt.Coll.Counter(CounterGracefulDepartures); got != 1 {
		t.Errorf("graceful departures = %d, want 1", got)
	}
	if got := h.rt.Coll.Counter(CounterAbruptDepartures); got != 0 {
		t.Errorf("abrupt departures = %d, want 0", got)
	}
}

func TestUnconfiguredNodeDeparture(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.arriveAt(5*time.Second, 1, 600, 500)
	// Node 1 leaves before it could configure (head 0 self-declares at
	// ~7s; node 1's attempt starts at 6s).
	h.departAt(6*time.Second, 1, true)
	h.runUntil(40 * time.Second)
	if h.p.Alive(1) {
		t.Error("node 1 still alive")
	}
	h.assertNoConflicts()
}

func TestReassignAfterHeadReturnKeepsMemberWorking(t *testing.T) {
	h := newHarness(t, smallSpace())
	lineOfHeads(t, h)
	h.arriveAt(150*time.Second, 10, 620, 60) // common under head 6
	h.departAt(200*time.Second, 6, true)     // head 6 returns its block to head 3
	h.runUntil(240 * time.Second)

	nd10 := h.p.nodes[radio.NodeID(10)]
	if nd10 == nil || !nd10.alive {
		t.Fatal("member lost")
	}
	if !nd10.hasConfigurer || nd10.configurer == 6 {
		t.Errorf("member configurer = %v (has=%v), want reassigned away from 6",
			nd10.configurer, nd10.hasConfigurer)
	}
	// The member's own graceful departure must now route to the adopter.
	h.departAt(241*time.Second, 10, true)
	h.runUntil(280 * time.Second)
	if h.p.Alive(10) {
		t.Error("member still alive after departure")
	}
	h.assertNoConflicts()
}

func TestNetTagSemantics(t *testing.T) {
	a := msg.NetTag{Addr: 1, Nonce: 5}
	b := msg.NetTag{Addr: 1, Nonce: 9}
	c := msg.NetTag{Addr: 2, Nonce: 0}
	if !a.Less(b) || b.Less(a) {
		t.Error("nonce ordering wrong")
	}
	if !a.Less(c) || c.Less(a) {
		t.Error("address ordering wrong")
	}
	if a.Less(a) {
		t.Error("tag less than itself")
	}
	var zero msg.NetTag
	if !zero.IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
	if a.String() == "" || a.String() == b.String() {
		t.Errorf("String collision: %q vs %q", a.String(), b.String())
	}
}

func TestDepartureCountersAndNecrology(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.arriveAt(20*time.Second, 1, 600, 500)
	h.departAt(50*time.Second, 1, false)
	h.runUntil(80 * time.Second)
	if got := h.rt.Coll.Counter(CounterAbruptDepartures); got != 1 {
		t.Errorf("abrupt counter = %d, want 1", got)
	}
	info, ok := h.p.departed[radio.NodeID(1)]
	if !ok {
		t.Fatal("no necrology entry")
	}
	if !info.HasIP || info.Role != RoleCommon {
		t.Errorf("necrology = %+v", info)
	}
}
