// Package quorum implements the paper's allocation rule (§II-C/D) — the one
// place either engine tallies a ballot: a majority of the replica holders
// must vote, the copy with the latest timestamp decides, and dynamic linear
// voting (Jajodia–Mutchler) breaks even splits — a set holding exactly half
// the votes constitutes a quorum iff it contains the distinguished node, the
// cluster head whose IPSpace holds the address under vote.
package quorum

import (
	"fmt"
	"sort"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

// HasQuorum decides whether granted votes out of total form a quorum under
// dynamic linear voting. A strict majority always wins. An exact half wins
// only when it includes the distinguished node; this applies only for even
// totals (an odd total cannot split in half).
func HasQuorum(granted, total int, distinguishedGranted bool) bool {
	if total <= 0 || granted <= 0 {
		return false
	}
	if granted > total {
		granted = total
	}
	if 2*granted > total {
		return true
	}
	return 2*granted == total && distinguishedGranted
}

// Ballot collects votes about one proposed address from an electorate (the
// allocator plus its QDSet in the paper). Each vote carries the voter's
// replica entry for the address; the freshest entry decides availability
// once a quorum of votes is in.
type Ballot struct {
	electorate    map[radio.NodeID]bool
	votes         map[radio.NodeID]addrspace.Entry
	distinguished radio.NodeID
	hasDistNode   bool
}

// NewBallot creates a ballot over the given electorate. The electorate must
// be non-empty and free of duplicates.
func NewBallot(electorate []radio.NodeID) (*Ballot, error) {
	if len(electorate) == 0 {
		return nil, fmt.Errorf("quorum: empty electorate")
	}
	b := &Ballot{
		electorate: make(map[radio.NodeID]bool, len(electorate)),
		votes:      make(map[radio.NodeID]addrspace.Entry),
	}
	for _, id := range electorate {
		if b.electorate[id] {
			return nil, fmt.Errorf("quorum: duplicate voter %d", id)
		}
		b.electorate[id] = true
	}
	return b, nil
}

// SetDistinguished marks the distinguished node for dynamic linear voting
// (the cluster head whose IPSpace contains the proposed address). The node
// must be in the electorate.
func (b *Ballot) SetDistinguished(id radio.NodeID) error {
	if !b.electorate[id] {
		return fmt.Errorf("quorum: distinguished node %d not in electorate", id)
	}
	b.distinguished = id
	b.hasDistNode = true
	return nil
}

// Cast records a vote. Voting twice or from outside the electorate is an
// error.
func (b *Ballot) Cast(voter radio.NodeID, e addrspace.Entry) error {
	if !b.electorate[voter] {
		return fmt.Errorf("quorum: vote from %d outside electorate", voter)
	}
	if _, dup := b.votes[voter]; dup {
		return fmt.Errorf("quorum: duplicate vote from %d", voter)
	}
	b.votes[voter] = e
	return nil
}

// Drop removes id from the electorate, with its vote if it cast one; the
// votes the others cast stand. Dropping the distinguished node gives up the
// tie-break. Drop reports whether any voter is left.
func (b *Ballot) Drop(id radio.NodeID) bool {
	delete(b.electorate, id)
	delete(b.votes, id)
	if b.hasDistNode && b.distinguished == id {
		b.hasDistNode = false
	}
	return len(b.electorate) > 0
}

// Voters returns the electorate in ascending ID order.
func (b *Ballot) Voters() []radio.NodeID {
	return b.sorted(func(radio.NodeID) bool { return true })
}

// Outstanding returns the electorate members that have not voted, in
// ascending ID order (deterministic retransmission order).
func (b *Ballot) Outstanding() []radio.NodeID {
	return b.sorted(func(id radio.NodeID) bool {
		_, voted := b.votes[id]
		return !voted
	})
}

func (b *Ballot) sorted(keep func(radio.NodeID) bool) []radio.NodeID {
	var out []radio.NodeID
	for id := range b.electorate {
		if keep(id) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasQuorum reports whether the votes cast so far form a quorum under
// dynamic linear voting.
func (b *Ballot) HasQuorum() bool {
	distGranted := false
	if b.hasDistNode {
		_, distGranted = b.votes[b.distinguished]
	}
	return HasQuorum(len(b.votes), len(b.electorate), distGranted)
}

// HasStrictMajority reports whether the votes cast form a strict majority,
// ignoring the distinguished node. Protocols use this on the fast path and
// fall back to dynamic linear voting (HasQuorum) only when members stop
// responding — the tie-break exists to rescue exact-half splits, not to
// skip fresh reads.
func (b *Ballot) HasStrictMajority() bool {
	return HasQuorum(len(b.votes), len(b.electorate), false)
}

// Decision is the outcome of a completed ballot.
type Decision struct {
	// Available reports whether the freshest replica says the proposed
	// address is free.
	Available bool
	// Entry is the freshest replica entry observed.
	Entry addrspace.Entry
}

// Decide returns the ballot's outcome. It fails unless a quorum of votes
// has been cast — deciding without a quorum would break the paper's
// uniqueness guarantee. The freshest entry is the one with the highest
// version; among equal versions occupied wins, so the outcome does not
// depend on the order the votes came in.
func (b *Ballot) Decide() (Decision, error) {
	if !b.HasQuorum() {
		return Decision{}, fmt.Errorf("quorum: no quorum (%d/%d votes)", len(b.votes), len(b.electorate))
	}
	var latest addrspace.Entry
	for _, e := range b.votes {
		// Occupied is the highest Status, so (version, status) order is the
		// rule, and a total one.
		if e.Version > latest.Version || (e.Version == latest.Version && e.Status > latest.Status) {
			latest = e
		}
	}
	return Decision{Available: latest.Status != addrspace.Occupied, Entry: latest}, nil
}
