package quorum

import (
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

// Grants is a node's exclusion record per address, the mutual-exclusion
// half of quorum voting (§II-C): while one ballot — an (allocator, ballot
// ID) pair — holds the vote, every other ballot reads Busy, so two
// allocators cannot both read "free" from a shared voter. An allocator's
// own open ballot holds its own vote like any other, and reserves the
// address against the allocator's other ballots. A vote lasts until its
// ballot closes, its write commits (Release) or the ttl runs out, on a
// clock of the caller's choice. Reserved, Close and Release are no-ops on
// a nil *Grants.
type Grants struct {
	ttl time.Duration
	m   map[addrspace.Addr]lock
}

type lock struct {
	allocator radio.NodeID
	ballot    uint64
	expires   time.Duration
	voted     bool // (allocator, ballot) holds the vote until expires
	reserved  bool // one of this node's own open ballots proposes the address
}

// NewGrants returns an empty table whose votes last ttl.
func NewGrants(ttl time.Duration) *Grants {
	return &Grants{ttl: ttl, m: make(map[addrspace.Addr]lock)}
}

// Grant answers a QUORUM_CLT for a: false (Busy) while another ballot
// holds the vote unexpired, else the vote goes, or is renewed, to
// (allocator, ballot) for ttl from now.
func (g *Grants) Grant(a addrspace.Addr, allocator radio.NodeID, ballot uint64, now time.Duration) bool {
	return g.take(a, allocator, ballot, now, false)
}

// Reserve is Grant to self's own ballot that also reserves a until Close.
func (g *Grants) Reserve(a addrspace.Addr, self radio.NodeID, ballot uint64, now time.Duration) bool {
	return g.take(a, self, ballot, now, true)
}

func (g *Grants) take(a addrspace.Addr, allocator radio.NodeID, ballot uint64, now time.Duration, reserve bool) bool {
	l := g.m[a]
	if l.voted && (l.allocator != allocator || l.ballot != ballot) && now < l.expires {
		return false
	}
	g.m[a] = lock{allocator, ballot, now + g.ttl, true, l.reserved || reserve}
	return true
}

// Reserved reports whether one of this node's own ballots proposes a.
func (g *Grants) Reserved(a addrspace.Addr) bool { return g != nil && g.m[a].reserved }

// Close ends self's ballot on a: the reservation goes, and the vote too
// if that ballot holds it.
func (g *Grants) Close(a addrspace.Addr, self radio.NodeID, ballot uint64) {
	g.update(a, func(l *lock) {
		l.reserved = false
		l.voted = l.voted && (l.allocator != self || l.ballot != ballot)
	})
}

// Release frees the vote on a once its write has committed. A reservation
// stays until this node's own ballot on a closes.
func (g *Grants) Release(a addrspace.Addr) { g.update(a, func(l *lock) { l.voted = false }) }

func (g *Grants) update(a addrspace.Addr, f func(*lock)) {
	if g == nil {
		return
	}
	if l, ok := g.m[a]; ok {
		if f(&l); l.voted || l.reserved {
			g.m[a] = l
		} else {
			delete(g.m, a)
		}
	}
}
