package core

import (
	"sync"
	"time"

	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// voteCache is the allocator-side vote cache (ROADMAP item 2): a cluster
// head under sustained churn re-polls an unchanged QDSet for every single
// request, paying a full round trip per ballot even though nothing moved.
// The cache records, per QDSet member, the last virtual time the member was
// *confirmed in sync* with this head's own pool — either by returning a
// vote matching the head's local entry, or by acknowledged receipt of the
// QUORUM_UPD that committed the previous write. While an entry is fresh the
// head may synthesize that member's affirmative vote from its own table
// instead of polling.
//
// Safety: synthesized votes skip the voter-side grant handshake, so the
// cache is only consulted for proposals from the allocator's OWN IPSpace.
// Any competing allocator borrowing from that space must poll the owner —
// who holds a self-grant for every open ballot — and reads "busy", which
// preserves the mutual exclusion the grants provide (DESIGN.md Appendix E).
//
// Invalidation (all three are mandatory; tests pin each edge):
//   - TTL: entries older than ttl are dropped at lookup time.
//   - Membership change: the member leaving or being shrunk out of the
//     QDSet drops its entry (invalidate).
//   - Address-state change: any write to the head's own pool that did not
//     come from the head's own commit path drops every entry
//     (invalidateAll) — a borrower's QUORUM_UPD, reclamation, or a
//     returned address means members may hold state this head never
//     propagated.
//
// The simulator drives the cache from the single event-loop goroutine, but
// the methods are mutex-guarded so a concurrent driver gets the same
// invalidation guarantees; TestVoteCacheConcurrentInvalidate exercises
// hit-vs-invalidate races under -race.
type voteCache struct {
	mu  sync.Mutex
	ttl time.Duration
	at  map[radio.NodeID]time.Duration
}

// newVoteCache returns a cache with the given TTL, or nil when ttl <= 0
// (disabled): all methods are nil-receiver safe no-ops.
func newVoteCache(ttl time.Duration) *voteCache {
	if ttl <= 0 {
		return nil
	}
	return &voteCache{ttl: ttl, at: make(map[radio.NodeID]time.Duration)}
}

// confirm records that member m was in sync with the owner's pool at now.
func (c *voteCache) confirm(m radio.NodeID, now time.Duration) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.at[m] = now
	c.mu.Unlock()
}

// fresh reports whether m's entry is usable at now. A stale entry is
// removed; expired reports that an entry existed but aged out (so the
// caller can trace the TTL invalidation).
func (c *voteCache) fresh(m radio.NodeID, now time.Duration) (ok, expired bool) {
	if c == nil {
		return false, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	at, have := c.at[m]
	if !have {
		return false, false
	}
	if now-at > c.ttl {
		delete(c.at, m)
		return false, true
	}
	return true, false
}

// invalidate drops m's entry, reporting whether one existed.
func (c *voteCache) invalidate(m radio.NodeID) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, have := c.at[m]; !have {
		return false
	}
	delete(c.at, m)
	return true
}

// invalidateAll drops every entry, returning how many were dropped.
func (c *voteCache) invalidateAll() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.at)
	clear(c.at)
	return n
}

// dropCachedVoter invalidates a member's vote-cache entry when it leaves
// the QDSet (departure, resignation, or quorum shrink).
func (p *Protocol) dropCachedVoter(nd *node, m radio.NodeID) {
	if nd.voteCache.invalidate(m) {
		p.rt.Trace(obs.Event{Kind: obs.EvVoteCacheInvalidate, Node: nd.id, Peer: m, Detail: "membership"})
	}
}

// size returns the number of cached members.
func (c *voteCache) size() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.at)
}
