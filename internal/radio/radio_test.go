package radio

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"quorumconf/internal/mobility"
)

// line builds a topology of n nodes spaced `gap` meters apart on the x-axis
// with transmission range r.
func line(t *testing.T, n int, gap, r float64) *Topology {
	t.Helper()
	topo, err := NewTopology(r)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := topo.Add(NodeID(i), mobility.Static(mobility.Point{X: float64(i) * gap})); err != nil {
			t.Fatal(err)
		}
	}
	return topo
}

func TestNewTopologyValidation(t *testing.T) {
	for _, r := range []float64{0, -1} {
		if _, err := NewTopology(r); err == nil {
			t.Errorf("NewTopology(%v) accepted", r)
		}
	}
}

func TestAddDuplicateAndNil(t *testing.T) {
	topo, _ := NewTopology(100)
	if err := topo.Add(1, mobility.Static(mobility.Point{})); err != nil {
		t.Fatal(err)
	}
	if err := topo.Add(1, mobility.Static(mobility.Point{})); err == nil {
		t.Error("duplicate Add accepted")
	}
	if err := topo.Add(2, nil); err == nil {
		t.Error("nil model accepted")
	}
}

func TestRemoveAndHas(t *testing.T) {
	topo := line(t, 3, 50, 100)
	if !slices.Contains(topo.Nodes(), 1) {
		t.Fatal("node 1 missing")
	}
	topo.Remove(1)
	if slices.Contains(topo.Nodes(), 1) {
		t.Error("node 1 present after Remove")
	}
	topo.Remove(1) // no-op
	if topo.Len() != 2 {
		t.Errorf("Len() = %d, want 2", topo.Len())
	}
}

func TestNodesSorted(t *testing.T) {
	topo, _ := NewTopology(10)
	for _, id := range []NodeID{5, 1, 9, 3} {
		_ = topo.Add(id, mobility.Static(mobility.Point{}))
	}
	ids := topo.Nodes()
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Errorf("Nodes() = %v, want sorted", ids)
	}
}

func TestSnapshotNeighborsLine(t *testing.T) {
	// 5 nodes, 100m apart, range 150m: each node hears +-1 only.
	topo := line(t, 5, 100, 150)
	s := topo.Snapshot(0)
	cases := map[NodeID][]NodeID{
		0: {1},
		1: {0, 2},
		2: {1, 3},
		4: {3},
	}
	for id, want := range cases {
		got := s.Neighbors(id)
		if len(got) != len(want) {
			t.Fatalf("Neighbors(%d) = %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Neighbors(%d) = %v, want %v", id, got, want)
			}
		}
	}
}

func TestSnapshotRangeBoundaryInclusive(t *testing.T) {
	topo, _ := NewTopology(100)
	_ = topo.Add(0, mobility.Static(mobility.Point{X: 0}))
	_ = topo.Add(1, mobility.Static(mobility.Point{X: 100})) // exactly at range
	_ = topo.Add(2, mobility.Static(mobility.Point{X: 200.0001}))
	s := topo.Snapshot(0)
	if d := len(s.Neighbors(0)); d != 1 {
		t.Errorf("node at exact range not a neighbor, degree = %d", d)
	}
	if d := len(s.Neighbors(2)); d != 0 {
		t.Errorf("node past range is a neighbor, degree = %d", d)
	}
}

func TestHopCountLine(t *testing.T) {
	topo := line(t, 6, 100, 150)
	s := topo.Snapshot(0)
	cases := []struct {
		a, b NodeID
		want int
	}{
		{0, 0, 0}, {0, 1, 1}, {0, 5, 5}, {2, 4, 2}, {5, 0, 5},
	}
	for _, c := range cases {
		got, ok := s.HopCount(c.a, c.b)
		if !ok || got != c.want {
			t.Errorf("HopCount(%d,%d) = %d,%v, want %d,true", c.a, c.b, got, ok, c.want)
		}
	}
}

func TestHopCountUnreachable(t *testing.T) {
	topo, _ := NewTopology(50)
	_ = topo.Add(0, mobility.Static(mobility.Point{X: 0}))
	_ = topo.Add(1, mobility.Static(mobility.Point{X: 1000}))
	s := topo.Snapshot(0)
	if _, ok := s.HopCount(0, 1); ok {
		t.Error("HopCount across partition reported reachable")
	}
	if _, ok := s.HopCount(0, 99); ok {
		t.Error("HopCount to absent node reported reachable")
	}
	if s.Reachable(0, 1) {
		t.Error("Reachable across partition = true")
	}
}

func TestWithinHops(t *testing.T) {
	topo := line(t, 6, 100, 150)
	s := topo.Snapshot(0)
	within := s.WithinHops(2, 2)
	want := map[NodeID]int{0: 2, 1: 1, 2: 0, 3: 1, 4: 2}
	if len(within) != len(want) {
		t.Fatalf("WithinHops(2,2) = %v, want %v", within, want)
	}
	for id, d := range want {
		if within[id] != d {
			t.Errorf("WithinHops[%d] = %d, want %d", id, within[id], d)
		}
	}
	if got := s.WithinHops(2, 0); len(got) != 1 || got[2] != 0 {
		t.Errorf("WithinHops(2,0) = %v, want only origin", got)
	}
	if got := s.WithinHops(99, 2); got != nil {
		t.Errorf("WithinHops(absent) = %v, want nil", got)
	}
	if got := s.WithinHops(2, -1); got != nil {
		t.Errorf("WithinHops(k<0) = %v, want nil", got)
	}
}

func TestComponents(t *testing.T) {
	topo, _ := NewTopology(120)
	// Two clusters: {0,1,2} around origin, {10,11} far away.
	for i, p := range []mobility.Point{{X: 0}, {X: 100}, {X: 200}} {
		_ = topo.Add(NodeID(i), mobility.Static(p))
	}
	_ = topo.Add(10, mobility.Static(mobility.Point{X: 5000}))
	_ = topo.Add(11, mobility.Static(mobility.Point{X: 5100}))
	s := topo.Snapshot(0)
	for id, want := range map[NodeID][]NodeID{0: {0, 1, 2}, 2: {0, 1, 2}, 10: {10, 11}, 11: {10, 11}} {
		if got := s.Component(id); !slices.Equal(got, want) {
			t.Errorf("Component(%d) = %v, want %v", id, got, want)
		}
	}
	if got := s.Component(99); got != nil {
		t.Errorf("Component(absent) = %v, want nil", got)
	}
}

func TestSnapshotImmutableAfterTopologyChange(t *testing.T) {
	topo := line(t, 3, 100, 150)
	s := topo.Snapshot(0)
	topo.Remove(1)
	if !s.Contains(1) {
		t.Error("snapshot lost node after topology change")
	}
	if d, ok := s.HopCount(0, 2); !ok || d != 2 {
		t.Errorf("snapshot HopCount(0,2) = %d,%v after removal, want 2,true", d, ok)
	}
}

func TestSnapshotTracksMobility(t *testing.T) {
	topo, _ := NewTopology(150)
	path, err := mobility.NewPath(
		[]time.Duration{0, 10 * time.Second},
		[]mobility.Point{{X: 0}, {X: 1000}},
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = topo.Add(0, path)
	_ = topo.Add(1, mobility.Static(mobility.Point{X: 100}))
	if s := topo.Snapshot(0); len(s.Neighbors(0)) != 1 {
		t.Error("nodes not connected at t=0")
	}
	if s := topo.Snapshot(10 * time.Second); len(s.Neighbors(0)) != 0 {
		t.Error("nodes still connected after node 0 moved 1km away")
	}
}

// randomSnapshot builds a uniform random layout for property tests.
func randomSnapshot(seed int64, n int, r float64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	topo, _ := NewTopology(r)
	for i := 0; i < n; i++ {
		p := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		_ = topo.Add(NodeID(i), mobility.Static(p))
	}
	return topo.Snapshot(0)
}

// Property: hop counts are symmetric and satisfy the triangle inequality.
func TestPropertyHopMetric(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSnapshot(seed, 30, 250)
		rng := rand.New(rand.NewSource(seed ^ 0x5ad))
		for trial := 0; trial < 10; trial++ {
			a := NodeID(rng.Intn(30))
			b := NodeID(rng.Intn(30))
			c := NodeID(rng.Intn(30))
			ab, okAB := s.HopCount(a, b)
			ba, okBA := s.HopCount(b, a)
			if okAB != okBA || (okAB && ab != ba) {
				return false
			}
			ac, okAC := s.HopCount(a, c)
			cb, okCB := s.HopCount(c, b)
			if okAC && okCB {
				if !okAB || ab > ac+cb {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: hop counts agree with the adjacency they are computed from.
// A node b at distance d > 0 from a has a neighbor at distance d-1 from a,
// and no neighbor of b is more than one hop nearer or farther.
func TestPropertyPathConsistency(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSnapshot(seed, 25, 300)
		rng := rand.New(rand.NewSource(seed ^ 0xfeed))
		for trial := 0; trial < 10; trial++ {
			a := NodeID(rng.Intn(25))
			b := NodeID(rng.Intn(25))
			hops, ok := s.HopCount(a, b)
			if !ok {
				continue
			}
			closer := hops == 0
			for _, n := range s.Neighbors(b) {
				d, okN := s.HopCount(a, n)
				if !okN || d < hops-1 || d > hops+1 {
					return false
				}
				closer = closer || d == hops-1
			}
			if !closer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: components partition the node set.
func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		s := randomSnapshot(seed, 40, 180)
		seen := map[NodeID]int{}
		total := 0
		for _, id := range s.Nodes() {
			comp := s.Component(id)
			if comp[0] != id {
				continue // counted from its lowest member
			}
			for _, m := range comp {
				seen[m]++
				total++
			}
		}
		if total != s.Len() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSnapshot200Nodes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	topo, _ := NewTopology(150)
	for i := 0; i < 200; i++ {
		p := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		_ = topo.Add(NodeID(i), mobility.Static(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.Snapshot(0)
	}
}

func BenchmarkHopCount200Nodes(b *testing.B) {
	s := randomSnapshot(1, 200, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HopCount(0, 199)
	}
}
