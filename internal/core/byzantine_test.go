package core

import (
	"testing"
	"time"

	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// TestByzDupClaimerCausesConflicts: a duplicate-claiming head hands the
// same unmarked address to every requestor, so the honest-world invariant
// (assertNoConflicts in every other test) visibly breaks.
func TestByzDupClaimerCausesConflicts(t *testing.T) {
	params := smallSpace()
	params.Byzantine = ByzantineParams{Nodes: []radio.NodeID{0}, Behaviors: ByzDupClaimer}
	h, ring := newTracedHarness(t, params)
	h.arriveAt(0, 0, 500, 500)
	for i := 1; i <= 4; i++ {
		h.arriveAt(60*time.Second+time.Duration(i)*2*time.Second, radio.NodeID(i), 500+float64(i)*10, 560)
	}
	h.runUntil(120 * time.Second)

	if n := countKind(ring, obs.EvByzantineDupClaim); n < 2 {
		t.Errorf("byzantine_dup_claim events = %d, want >= 2", n)
	}
	if got := len(h.p.AddressConflicts()); got < 1 {
		t.Errorf("%d conflicted addresses, want >= 1 (same address granted repeatedly)", got)
	}
	if got := h.rt.Coll.Counter(CounterByzantineActs); got < 2 {
		t.Errorf("byzantine_acts = %d, want >= 2", got)
	}
}

// threeHeadLine builds head 0 at the origin with heads 3 and 6 three hops
// away on two arms, both holding replicas of 0's space, plus commons 1-2
// and 4-5 configured by head 0 along the arms.
func threeHeadLine(h *harness) {
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(10*time.Second, 1, 100, 0)
	h.arriveAt(20*time.Second, 2, 200, 0)
	h.arriveAt(30*time.Second, 3, 300, 0) // 3 hops from head 0: new head
	h.arriveAt(40*time.Second, 4, 0, 100)
	h.arriveAt(50*time.Second, 5, 0, 200)
	h.arriveAt(60*time.Second, 6, 0, 300) // 3 hops on the other arm: new head
}

// reclaimAfterHeadCrash drives the reclamation scenario: head 0 and its
// on-arm members crash abruptly, the surviving heads detect the dead QDSet
// member and reclaim 0's space. Returns recovered address count.
func reclaimAfterHeadCrash(t *testing.T, params Params) (int64, *obs.Ring) {
	t.Helper()
	h, ring := newTracedHarness(t, params)
	threeHeadLine(h)
	h.departAt(100*time.Second, 0, false)
	h.departAt(100*time.Second, 1, false)
	h.departAt(100*time.Second, 2, false)
	h.runUntil(160 * time.Second)
	return h.rt.Coll.Counter(CounterAddrReclaimed), ring
}

// TestByzVoteLiarSabotagesReclamation: an honest fleet recovers the crashed
// head's leaked addresses; with a vote-liar among the replica holders, the
// forged existence reports refresh every address and nothing is recovered.
func TestByzVoteLiarSabotagesReclamation(t *testing.T) {
	honest, _ := reclaimAfterHeadCrash(t, smallSpace())
	if honest < 1 {
		t.Fatalf("honest run reclaimed %d addresses, want >= 1 (scenario broken)", honest)
	}

	params := smallSpace()
	params.Byzantine = ByzantineParams{Nodes: []radio.NodeID{6}, Behaviors: ByzVoteLiar}
	sabotaged, ring := reclaimAfterHeadCrash(t, params)
	if sabotaged >= honest {
		t.Errorf("sabotaged run reclaimed %d addresses, honest run %d — liar had no effect", sabotaged, honest)
	}
	forged := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvByzantineVoteLie && e.Detail == "forge_rec_rep" {
			forged++
		}
	}
	if forged == 0 {
		t.Error("no forge_rec_rep byzantine_vote_lie events")
	}
}

// TestByzVoteLiarForgesVotes: a vote-liar polled during ballots answers
// with fabricated freshness; the events record every lie.
func TestByzVoteLiarForgesVotes(t *testing.T) {
	params := smallSpace()
	params.Byzantine = ByzantineParams{Nodes: []radio.NodeID{3}, Behaviors: ByzVoteLiar}
	h, ring := newTracedHarness(t, params)
	twoHeadChain(h)
	// Joins at head 0 force ballots that poll QDSet member 3 — the liar.
	for i := 0; i < 4; i++ {
		h.arriveAt(60*time.Second+time.Duration(i)*2*time.Second, radio.NodeID(4+i), 40+float64(i)*8, 60)
	}
	h.runUntil(120 * time.Second)

	lies := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvByzantineVoteLie && e.Node == 3 {
			lies++
		}
	}
	if lies == 0 {
		t.Error("no byzantine_vote_lie events from the liar head")
	}
}
