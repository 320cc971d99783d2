package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"quorumconf/internal/mobility"
	"quorumconf/internal/radio"
)

// lineSnap builds an n-node line, 100m spacing, 150m range: hop distance
// equals index distance.
func lineSnap(t *testing.T, n int) *radio.Snapshot {
	t.Helper()
	topo, err := radio.NewTopology(150)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := topo.Add(radio.NodeID(i), mobility.Static(mobility.Point{X: float64(i) * 100})); err != nil {
			t.Fatal(err)
		}
	}
	return topo.Snapshot(0)
}

func headSet(ids ...radio.NodeID) HeadFunc {
	set := map[radio.NodeID]bool{}
	for _, id := range ids {
		set[id] = true
	}
	return func(id radio.NodeID) bool { return set[id] }
}

func TestHeadsWithin(t *testing.T) {
	snap := lineSnap(t, 8)
	isHead := headSet(0, 3, 6)
	got := HeadsWithin(snap, 3, 3, isHead)
	if len(got) != 2 || got[0] != 0 || got[1] != 6 {
		t.Errorf("HeadsWithin(3, 3) = %v, want [0 6]", got)
	}
	got = HeadsWithin(snap, 3, 2, isHead)
	if len(got) != 0 {
		t.Errorf("HeadsWithin(3, 2) = %v, want empty (heads are 3 hops away)", got)
	}
	got = HeadsWithin(snap, 0, 3, isHead)
	if len(got) != 1 || got[0] != 3 {
		t.Errorf("HeadsWithin(0, 3) = %v, want [3]", got)
	}
}

// TestEligibleHead pins the §IV-B rule as core applies it: a node may
// declare itself a cluster head when HeadsWithin finds no head within two
// hops.
func TestEligibleHead(t *testing.T) {
	snap := lineSnap(t, 8)
	isHead := headSet(0)
	for id, want := range map[radio.NodeID]bool{1: false, 2: false, 3: true, 7: true} {
		if got := eligibleHead(snap, id, isHead); got != want {
			t.Errorf("node %d eligible = %v, want %v (head at node 0)", id, got, want)
		}
	}
}

// eligibleHead reports whether id may declare itself a cluster head: no
// existing head within two hops.
func eligibleHead(snap *radio.Snapshot, id radio.NodeID, isHead HeadFunc) bool {
	return len(HeadsWithin(snap, id, 2, isHead)) == 0
}

func TestQDSetUsesThreeHops(t *testing.T) {
	snap := lineSnap(t, 10)
	isHead := headSet(0, 3, 7, 9)
	got := QDSet(snap, 3, isHead)
	// Head 0 at 3 hops: in. Head 7 at 4 hops: out. Head 9 at 6 hops: out.
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("QDSet(3) = %v, want [0]", got)
	}
	got = QDSet(snap, 7, isHead)
	if len(got) != 1 || got[0] != 9 {
		t.Errorf("QDSet(7) = %v, want [9]", got)
	}
}

func TestNearest(t *testing.T) {
	snap := lineSnap(t, 10)
	isHead := headSet(0, 7)
	id, d, ok := Nearest(snap, 2, isHead)
	if !ok || id != 0 || d != 2 {
		t.Errorf("Nearest(2) = %v,%d,%v, want 0,2,true", id, d, ok)
	}
	id, d, ok = Nearest(snap, 5, isHead)
	if !ok || id != 7 || d != 2 {
		t.Errorf("Nearest(5) = %v,%d,%v, want 7,2,true", id, d, ok)
	}
}

func TestNearestTieBreaksLowID(t *testing.T) {
	snap := lineSnap(t, 9)
	isHead := headSet(2, 6)
	id, d, ok := Nearest(snap, 4, isHead) // both heads 2 hops away
	if !ok || id != 2 || d != 2 {
		t.Errorf("Nearest(4) = %v,%d,%v, want 2,2,true (low-ID tie-break)", id, d, ok)
	}
}

func TestNearestNoHeads(t *testing.T) {
	snap := lineSnap(t, 3)
	if _, _, ok := Nearest(snap, 1, headSet()); ok {
		t.Error("Nearest found a head in headless network")
	}
	if _, _, ok := Nearest(snap, 99, headSet(0)); ok {
		t.Error("Nearest from absent node reported ok")
	}
}

func TestNearestIgnoresUnreachableHeads(t *testing.T) {
	topo, _ := radio.NewTopology(150)
	_ = topo.Add(0, mobility.Static(mobility.Point{X: 0}))
	_ = topo.Add(1, mobility.Static(mobility.Point{X: 100}))
	_ = topo.Add(5, mobility.Static(mobility.Point{X: 5000})) // isolated head
	snap := topo.Snapshot(0)
	if _, _, ok := Nearest(snap, 0, headSet(5)); ok {
		t.Error("Nearest returned unreachable head")
	}
}

func TestViolations(t *testing.T) {
	snap := lineSnap(t, 6)
	// Heads 2 and 3 are one-hop neighbors: violation. Heads 0 and 2 are
	// two hops apart: allowed.
	v := Violations(snap, []radio.NodeID{0, 2, 3})
	if len(v) != 1 || v[0] != (Violation{A: 2, B: 3}) {
		t.Errorf("Violations = %v, want [{2 3}]", v)
	}
	if v := Violations(snap, []radio.NodeID{0, 2, 4}); len(v) != 0 {
		t.Errorf("Violations = %v, want none", v)
	}
}

func TestMembers(t *testing.T) {
	snap := lineSnap(t, 7)
	isHead := headSet(0, 4)
	m := Members(snap, 0, isHead)
	// Nodes 1,2 nearest to head 0 (node 2 ties 2-2, low-ID wins → 0).
	if len(m) != 2 || m[0] != 1 || m[1] != 2 {
		t.Errorf("Members(0) = %v, want [1 2]", m)
	}
	m = Members(snap, 4, isHead)
	if len(m) != 3 || m[0] != 3 || m[1] != 5 || m[2] != 6 {
		t.Errorf("Members(4) = %v, want [3 5 6]", m)
	}
}

// greedyHeads runs the paper's arrival-order head formation over a random
// static layout: each node in ID order becomes a head iff no head is
// within two hops.
func greedyHeads(snap *radio.Snapshot) map[radio.NodeID]bool {
	heads := map[radio.NodeID]bool{}
	isHead := func(id radio.NodeID) bool { return heads[id] }
	for _, id := range snap.Nodes() {
		if eligibleHead(snap, id, isHead) {
			heads[id] = true
		}
	}
	return heads
}

// Property: greedy formation never creates neighboring heads, and every
// non-head has a head within two hops (cluster coverage).
func TestPropertyGreedyFormationInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := radio.NewTopology(150)
		if err != nil {
			return false
		}
		for i := 0; i < 60; i++ {
			p := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			if err := topo.Add(radio.NodeID(i), mobility.Static(p)); err != nil {
				return false
			}
		}
		snap := topo.Snapshot(0)
		heads := greedyHeads(snap)
		var headList []radio.NodeID
		for h := range heads {
			headList = append(headList, h)
		}
		if len(Violations(snap, headList)) != 0 {
			return false
		}
		isHead := func(id radio.NodeID) bool { return heads[id] }
		for _, id := range snap.Nodes() {
			if heads[id] {
				continue
			}
			if len(HeadsWithin(snap, id, 2, isHead)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: QDSet relation is symmetric under distance (if B is in A's
// 3-hop set then A is in B's).
func TestPropertyQDSetSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		topo, err := radio.NewTopology(200)
		if err != nil {
			return false
		}
		for i := 0; i < 40; i++ {
			p := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			if err := topo.Add(radio.NodeID(i), mobility.Static(p)); err != nil {
				return false
			}
		}
		snap := topo.Snapshot(0)
		heads := greedyHeads(snap)
		isHead := func(id radio.NodeID) bool { return heads[id] }
		for h := range heads {
			for _, other := range QDSet(snap, h, isHead) {
				back := QDSet(snap, other, isHead)
				found := false
				for _, b := range back {
					if b == h {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
