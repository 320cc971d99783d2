// Package radio models wireless connectivity as a unit-disk graph: two
// nodes have a (bidirectional) link iff their Euclidean distance does not
// exceed the transmission range. The paper measures every cost in hop
// counts over this graph ("one message sent from one node to its one hop
// neighbor is considered to be one hop"), so this package also provides the
// BFS machinery for hop counts, k-hop neighborhoods and connected
// components.
//
// Because nodes move, the graph is a function of time: a Topology holds the
// mobility models, and Snapshot materializes the adjacency at one instant.
// All node orderings are sorted so that protocol behaviour is deterministic.
//
// Snapshot construction uses a spatial hash grid (cell size = transmission
// range) so adjacency costs O(n·k) for k neighbors per cell block instead
// of the O(n²) pairwise scan, and all BFS machinery runs over dense
// slice-indexed arrays keyed by a compact node-index table rather than
// maps. This is the hot path of the whole simulator: netstack rebuilds a
// snapshot after every topology change and runs a BFS per unicast.
package radio

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"quorumconf/internal/mobility"
)

// NodeID identifies a node in the simulation. IDs are assigned by the
// scenario (arrival order in the paper's experiments) and never reused.
type NodeID int

// Topology tracks the set of live nodes, their mobility models and the
// transmission range.
type Topology struct {
	rangeM float64
	models map[NodeID]mobility.Model
}

// NewTopology creates an empty topology with the given transmission range
// in meters (tr in the paper; 150m in most experiments).
func NewTopology(transmissionRange float64) (*Topology, error) {
	if transmissionRange <= 0 {
		return nil, fmt.Errorf("radio: transmission range %v must be positive", transmissionRange)
	}
	return &Topology{rangeM: transmissionRange, models: make(map[NodeID]mobility.Model)}, nil
}

// Range returns the transmission range in meters.
func (t *Topology) Range() float64 { return t.rangeM }

// Add registers a node with its mobility model. Adding an existing ID or a
// nil model is an error.
func (t *Topology) Add(id NodeID, m mobility.Model) error {
	if m == nil {
		return fmt.Errorf("radio: node %d has nil mobility model", id)
	}
	if _, ok := t.models[id]; ok {
		return fmt.Errorf("radio: node %d already present", id)
	}
	t.models[id] = m
	return nil
}

// Remove deletes a node (used for departures). Removing an absent node is a
// no-op so departure handling does not need existence checks.
func (t *Topology) Remove(id NodeID) { delete(t.models, id) }

// Len returns the number of live nodes.
func (t *Topology) Len() int { return len(t.models) }

// Nodes returns the live node IDs in ascending order.
func (t *Topology) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(t.models))
	for id := range t.models {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// PositionAt returns a node's position at virtual time at.
func (t *Topology) PositionAt(id NodeID, at time.Duration) (mobility.Point, bool) {
	m, ok := t.models[id]
	if !ok {
		return mobility.Point{}, false
	}
	return m.PositionAt(at), true
}

// cellKey addresses one bucket of the spatial hash grid.
type cellKey struct{ cx, cy int32 }

// Snapshot materializes the connectivity graph at time at. The snapshot is
// immutable and remains valid after the topology changes.
//
// Adjacency is built with a spatial hash grid whose cell size equals the
// transmission range: any neighbor of a node lies in the node's cell or one
// of the 8 surrounding cells, so each node compares against its local cell
// block instead of every other node.
func (t *Topology) Snapshot(at time.Duration) *Snapshot {
	ids := t.Nodes()
	n := len(ids)
	s := &Snapshot{
		at:  at,
		ids: ids,
		idx: make(map[NodeID]int32, n),
		pos: make([]mobility.Point, n),
		adj: make([][]int32, n),
	}
	for i, id := range ids {
		s.idx[id] = int32(i)
		s.pos[i] = t.models[id].PositionAt(at)
	}
	if n == 0 {
		return s
	}
	cell := t.rangeM
	buckets := make(map[cellKey][]int32, n)
	keys := make([]cellKey, n)
	for i := 0; i < n; i++ {
		k := cellKey{
			cx: int32(math.Floor(s.pos[i].X / cell)),
			cy: int32(math.Floor(s.pos[i].Y / cell)),
		}
		keys[i] = k
		buckets[k] = append(buckets[k], int32(i))
	}
	// Adjacency is laid out CSR-style: one flat buffer of neighbor indices
	// with per-node offsets, so the whole graph costs O(1) allocations
	// regardless of node count.
	r2 := t.rangeM * t.rangeM
	flat := make([]int32, 0, 8*n)
	starts := make([]int32, n+1)
	for i := 0; i < n; i++ {
		pi := s.pos[i]
		k := keys[i]
		starts[i] = int32(len(flat))
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for _, j := range buckets[cellKey{cx: k.cx + dx, cy: k.cy + dy}] {
					if j == int32(i) {
						continue
					}
					pj := s.pos[j]
					ddx, ddy := pi.X-pj.X, pi.Y-pj.Y
					if ddx*ddx+ddy*ddy <= r2 {
						flat = append(flat, j)
					}
				}
			}
		}
		// Bucket iteration interleaves the 9 cells, so restore the
		// ascending order the deterministic protocol machinery relies on.
		slices.Sort(flat[starts[i]:])
	}
	starts[n] = int32(len(flat))
	for i := 0; i < n; i++ {
		s.adj[i] = flat[starts[i]:starts[i+1]:starts[i+1]]
	}
	return s
}

// Snapshot is an immutable picture of the connectivity graph at one
// instant. Node identity is translated once into a compact index (position
// in the sorted ID slice); all per-node state — positions, adjacency, BFS
// distances — lives in dense slices keyed by that index. Distance queries
// memoize one full BFS per source, and bounded queries (WithinHops with
// small k) reuse scratch buffers across calls, so repeated queries against
// the same snapshot allocate next to nothing.
//
// A Snapshot is not safe for concurrent use: the memo and scratch buffers
// mutate lazily. Every snapshot belongs to exactly one simulation run,
// which executes on a single goroutine.
type Snapshot struct {
	at  time.Duration
	ids []NodeID // sorted ascending; slice position is the dense index
	idx map[NodeID]int32
	pos []mobility.Point // by dense index
	adj [][]int32        // by dense index; neighbor indices ascending

	nbrIDs   [][]NodeID // lazy NodeID view of adj, built per node on demand
	distMemo [][]int32  // full BFS rows by source index; -1 = unreachable

	// Scratch reused by bounded BFS queries; entries are reset to -1 after
	// each use by replaying the visit queue.
	scratchDist []int32
	queue       []int32
}

// index resolves a NodeID to its dense index.
func (s *Snapshot) index(id NodeID) (int32, bool) {
	i, ok := s.idx[id]
	return i, ok
}

// dists returns (and memoizes) the dense hop-distance row from the source
// index; -1 marks unreachable nodes.
func (s *Snapshot) dists(si int32) []int32 {
	if s.distMemo == nil {
		s.distMemo = make([][]int32, len(s.ids))
	}
	if d := s.distMemo[si]; d != nil {
		return d
	}
	d := make([]int32, len(s.ids))
	for i := range d {
		d[i] = -1
	}
	d[si] = 0
	q := append(s.queue[:0], si)
	for head := 0; head < len(q); head++ {
		cur := q[head]
		dc := d[cur]
		for _, nb := range s.adj[cur] {
			if d[nb] < 0 {
				d[nb] = dc + 1
				q = append(q, nb)
			}
		}
	}
	s.queue = q[:0]
	s.distMemo[si] = d
	return d
}

// At returns the instant the snapshot was taken.
func (s *Snapshot) At() time.Duration { return s.at }

// Nodes returns all node IDs in ascending order. Callers must not mutate
// the returned slice.
func (s *Snapshot) Nodes() []NodeID { return s.ids }

// Len returns the number of nodes in the snapshot.
func (s *Snapshot) Len() int { return len(s.ids) }

// Contains reports whether the node existed when the snapshot was taken.
func (s *Snapshot) Contains(id NodeID) bool {
	_, ok := s.idx[id]
	return ok
}

// Position returns the node's position in the snapshot.
func (s *Snapshot) Position(id NodeID) (mobility.Point, bool) {
	i, ok := s.index(id)
	if !ok {
		return mobility.Point{}, false
	}
	return s.pos[i], true
}

// Neighbors returns the node's one-hop neighbors in ascending order.
// Callers must not mutate the returned slice.
func (s *Snapshot) Neighbors(id NodeID) []NodeID {
	i, ok := s.index(id)
	if !ok {
		return nil
	}
	if s.nbrIDs == nil {
		s.nbrIDs = make([][]NodeID, len(s.ids))
	}
	if s.nbrIDs[i] == nil && len(s.adj[i]) > 0 {
		lst := make([]NodeID, len(s.adj[i]))
		for j, nb := range s.adj[i] {
			lst[j] = s.ids[nb]
		}
		s.nbrIDs[i] = lst
	}
	return s.nbrIDs[i]
}

// HopCount returns the length in hops of a shortest path from a to b, and
// whether b is reachable from a. HopCount(x, x) is 0 for a present node.
func (s *Snapshot) HopCount(a, b NodeID) (int, bool) {
	ai, ok := s.index(a)
	if !ok {
		return 0, false
	}
	bi, ok := s.index(b)
	if !ok {
		return 0, false
	}
	if ai == bi {
		return 0, true
	}
	d := s.dists(ai)[bi]
	if d < 0 {
		return 0, false
	}
	return int(d), true
}

// WithinHops returns every node reachable from id in at most k hops, mapped
// to its hop distance. The origin is included with distance 0.
//
// Small k — the QDSet hot path queries k = 2 and 3 — runs a bounded BFS
// that stops expanding at depth k instead of walking the whole component.
func (s *Snapshot) WithinHops(id NodeID, k int) map[NodeID]int {
	si, ok := s.index(id)
	if !ok || k < 0 {
		return nil
	}
	// When the bound cannot cut the search short, or the full row is
	// already memoized, filter the full BFS (and share it with HopCount).
	if k >= len(s.ids)-1 || (s.distMemo != nil && s.distMemo[si] != nil) {
		out := make(map[NodeID]int)
		for i, d := range s.dists(si) {
			if d >= 0 && int(d) <= k {
				out[s.ids[i]] = int(d)
			}
		}
		return out
	}
	if s.scratchDist == nil {
		s.scratchDist = make([]int32, len(s.ids))
		for i := range s.scratchDist {
			s.scratchDist[i] = -1
		}
	}
	dist := s.scratchDist
	out := map[NodeID]int{id: 0}
	q := append(s.queue[:0], si)
	dist[si] = 0
	for head := 0; head < len(q); head++ {
		cur := q[head]
		dc := dist[cur]
		if int(dc) >= k {
			continue // frontier at the bound: record, do not expand
		}
		for _, nb := range s.adj[cur] {
			if dist[nb] < 0 {
				dist[nb] = dc + 1
				q = append(q, nb)
				out[s.ids[nb]] = int(dc) + 1
			}
		}
	}
	for _, i := range q {
		dist[i] = -1
	}
	s.queue = q[:0]
	return out
}

// Reachable reports whether b is in a's connected component.
func (s *Snapshot) Reachable(a, b NodeID) bool {
	_, ok := s.HopCount(a, b)
	return ok
}

// Component returns the connected component containing id, in ascending ID
// order (dense indices ascend with IDs, so no sort is needed).
func (s *Snapshot) Component(id NodeID) []NodeID {
	si, ok := s.index(id)
	if !ok {
		return nil
	}
	dist := s.dists(si)
	var out []NodeID
	for i, d := range dist {
		if d >= 0 {
			out = append(out, s.ids[i])
		}
	}
	return out
}
