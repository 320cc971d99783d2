package radio

import (
	"math/rand"
	"testing"

	"quorumconf/internal/mobility"
)

// naiveAdjacency is the seed implementation kept as a reference: O(n²)
// pairwise distance checks building map-based neighbor lists. The grid
// snapshot must produce exactly this adjacency, and BenchmarkSnapshot200
// vs BenchmarkSnapshot200NaivePairwise quantifies what the spatial hash
// grid buys on the per-send rebuild path.
func naiveAdjacency(t *Topology, ids []NodeID, pos map[NodeID]mobility.Point) map[NodeID][]NodeID {
	adj := make(map[NodeID][]NodeID, len(ids))
	r2 := t.Range() * t.Range()
	for i, a := range ids {
		pa := pos[a]
		for _, b := range ids[i+1:] {
			pb := pos[b]
			dx, dy := pa.X-pb.X, pa.Y-pb.Y
			if dx*dx+dy*dy <= r2 {
				adj[a] = append(adj[a], b)
				adj[b] = append(adj[b], a)
			}
		}
	}
	return adj
}

// naiveBFS is the seed map-allocating BFS, kept for the benchmark
// comparison against the dense slice-indexed BFS.
func naiveBFS(adj map[NodeID][]NodeID, src NodeID) map[NodeID]int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		d := dist[cur]
		for _, n := range adj[cur] {
			if _, seen := dist[n]; !seen {
				dist[n] = d + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// randomTopology builds n uniformly placed static nodes over a 1km square.
func randomTopology(tb testing.TB, seed int64, n int, r float64) *Topology {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	topo, err := NewTopology(r)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p := mobility.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		if err := topo.Add(NodeID(i), mobility.Static(p)); err != nil {
			tb.Fatal(err)
		}
	}
	return topo
}

// TestGridMatchesNaivePairwise pins the spatial-grid adjacency to the seed
// O(n²) scan across a spread of densities, including nodes that land
// exactly on cell borders and a range larger than the deployment area.
func TestGridMatchesNaivePairwise(t *testing.T) {
	cases := []struct {
		seed int64
		n    int
		r    float64
	}{
		{1, 50, 150}, {2, 200, 150}, {3, 120, 60}, {4, 80, 400}, {5, 30, 1500},
	}
	for _, c := range cases {
		topo := randomTopology(t, c.seed, c.n, c.r)
		s := topo.Snapshot(0)
		ids := topo.Nodes()
		pos := make(map[NodeID]mobility.Point, len(ids))
		for _, id := range ids {
			p, _ := topo.PositionAt(id, 0)
			pos[id] = p
		}
		want := naiveAdjacency(topo, ids, pos)
		for _, id := range ids {
			got := s.Neighbors(id)
			if len(got) != len(want[id]) {
				t.Fatalf("seed=%d r=%v: Neighbors(%d) = %v, want %v", c.seed, c.r, id, got, want[id])
			}
			for i := range got {
				if got[i] != want[id][i] {
					t.Fatalf("seed=%d r=%v: Neighbors(%d) = %v, want %v", c.seed, c.r, id, got, want[id])
				}
			}
		}
	}
}

// TestGridNegativeCoordinates covers cell hashing for nodes left of or
// below the origin (mobility models are not clamped to the area).
func TestGridNegativeCoordinates(t *testing.T) {
	topo, _ := NewTopology(100)
	_ = topo.Add(0, mobility.Static(mobility.Point{X: -50, Y: -50}))
	_ = topo.Add(1, mobility.Static(mobility.Point{X: 20, Y: 20}))
	_ = topo.Add(2, mobility.Static(mobility.Point{X: -250, Y: -250}))
	s := topo.Snapshot(0)
	if d := len(s.Neighbors(0)); d != 1 {
		t.Errorf("node 0 has %d neighbors, want 1 (node 1 within range across the origin)", d)
	}
	if d := len(s.Neighbors(2)); d != 0 {
		t.Errorf("node 2 has %d neighbors, want 0", d)
	}
}

// TestWithinHopsBoundedMatchesFull pins the bounded-BFS fast path (small k)
// to the full-BFS filter for every k, including repeated interleaved
// queries that exercise scratch-buffer reuse.
func TestWithinHopsBoundedMatchesFull(t *testing.T) {
	topo := randomTopology(t, 7, 120, 150)
	s := topo.Snapshot(0)
	full := topo.Snapshot(0) // second snapshot: memoized-full reference
	for _, id := range []NodeID{0, 17, 63, 119} {
		// Force the reference snapshot to memoize the full row first.
		full.Component(id)
		for k := 0; k < 8; k++ {
			got := s.WithinHops(id, k)
			want := full.WithinHops(id, k)
			if len(got) != len(want) {
				t.Fatalf("WithinHops(%d,%d) = %d nodes, want %d", id, k, len(got), len(want))
			}
			for n, d := range want {
				if got[n] != d {
					t.Fatalf("WithinHops(%d,%d)[%d] = %d, want %d", id, k, n, got[n], d)
				}
			}
		}
	}
}

// BenchmarkSnapshot200 measures the grid snapshot rebuild plus the unicast
// routing pattern netstack pays after every InvalidateSnapshot: one full
// BFS (memoized) and a pair of hop-count queries at n=200, tr=150m.
func BenchmarkSnapshot200(b *testing.B) {
	topo := randomTopology(b, 1, 200, 150)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := topo.Snapshot(0)
		s.HopCount(0, 199)
		s.HopCount(3, 150)
	}
}

// BenchmarkSnapshot200NaivePairwise is the seed path — O(n²) adjacency and
// map-based BFS — kept as the regression baseline for BenchmarkSnapshot200.
func BenchmarkSnapshot200NaivePairwise(b *testing.B) {
	topo := randomTopology(b, 1, 200, 150)
	ids := topo.Nodes()
	pos := make(map[NodeID]mobility.Point, len(ids))
	for _, id := range ids {
		p, _ := topo.PositionAt(id, 0)
		pos[id] = p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adj := naiveAdjacency(topo, ids, pos)
		d := naiveBFS(adj, 0)
		_ = d[199]
		d2 := naiveBFS(adj, 3)
		_ = d2[150]
	}
}

// BenchmarkWithinHopsK3 measures the QDSet hot path: a depth-3 bounded BFS
// on a 200-node snapshot, repeated across sources so scratch reuse shows.
func BenchmarkWithinHopsK3(b *testing.B) {
	topo := randomTopology(b, 1, 200, 150)
	s := topo.Snapshot(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.WithinHops(NodeID(i%200), 3)
	}
}
