// Package cluster encodes the paper's clustering rules as pure functions
// over a connectivity snapshot. Clusters form dynamically as nodes enter:
// a node that hears a cluster head within two hops joins as a common node,
// otherwise it becomes a new cluster head. Consequently two cluster heads
// are never neighbors. A head's QDSet is the set of adjacent cluster heads
// within three hops; it is the electorate for quorum voting and the
// replica set for the head's IPSpace.
package cluster

import (
	"sort"

	"quorumconf/internal/radio"
)

// HeadFunc reports whether a node currently acts as a cluster head.
type HeadFunc func(radio.NodeID) bool

// HeadsWithin returns all cluster heads within k hops of id (excluding id
// itself), in ascending ID order.
func HeadsWithin(snap *radio.Snapshot, id radio.NodeID, k int, isHead HeadFunc) []radio.NodeID {
	var heads []radio.NodeID
	for other := range snap.WithinHops(id, k) {
		if other != id && isHead(other) {
			heads = append(heads, other)
		}
	}
	sort.Slice(heads, func(i, j int) bool { return heads[i] < heads[j] })
	return heads
}

// QDSet returns id's adjacent cluster heads within three hops — the
// replica holders and quorum electorate for id's IPSpace.
func QDSet(snap *radio.Snapshot, id radio.NodeID, isHead HeadFunc) []radio.NodeID {
	return HeadsWithin(snap, id, 3, isHead)
}

// Nearest returns the closest cluster head to id by hop count, together
// with the distance. Ties break toward the lower node ID. The third result
// is false when no head is reachable.
func Nearest(snap *radio.Snapshot, id radio.NodeID, isHead HeadFunc) (radio.NodeID, int, bool) {
	if !snap.Contains(id) {
		return 0, 0, false
	}
	// Search the whole component; WithinHops with the component bound.
	dist := snap.WithinHops(id, snap.Len())
	best := radio.NodeID(0)
	bestD := -1
	for other, d := range dist {
		if other == id || !isHead(other) {
			continue
		}
		if bestD == -1 || d < bestD || (d == bestD && other < best) {
			best, bestD = other, d
		}
	}
	if bestD == -1 {
		return 0, 0, false
	}
	return best, bestD, true
}

// Violation is a pair of cluster heads that are too close to each other
// (the paper's invariant: heads are at least two hops apart, i.e. never
// one-hop neighbors).
type Violation struct {
	A, B radio.NodeID
}

// Violations returns every pair of heads that are one-hop neighbors, in
// deterministic (A < B, then ascending) order. Mobility can create such
// pairs transiently; the protocol tolerates them, and tests use this to
// assert the invariant holds at formation time.
func Violations(snap *radio.Snapshot, heads []radio.NodeID) []Violation {
	isHead := make(map[radio.NodeID]bool, len(heads))
	for _, h := range heads {
		isHead[h] = true
	}
	var out []Violation
	for _, h := range heads {
		for _, nb := range snap.Neighbors(h) {
			if isHead[nb] && h < nb {
				out = append(out, Violation{A: h, B: nb})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Members returns the nodes (excluding heads) whose nearest head is h —
// the cluster of h under nearest-head assignment. Used by layout tooling
// and tests; the protocol itself tracks membership explicitly through
// configuration.
func Members(snap *radio.Snapshot, h radio.NodeID, isHead HeadFunc) []radio.NodeID {
	var members []radio.NodeID
	for _, id := range snap.Nodes() {
		if id == h || isHead(id) {
			continue
		}
		if nh, _, ok := Nearest(snap, id, isHead); ok && nh == h {
			members = append(members, id)
		}
	}
	return members
}
