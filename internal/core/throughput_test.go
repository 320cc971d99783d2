package core

import (
	"sync"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// newTracedHarness is newHarness with a ring tracer attached, for tests
// asserting on the event stream.
func newTracedHarness(t *testing.T, params Params) (*harness, *obs.Ring) {
	t.Helper()
	ring := obs.NewRing(16384)
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{
		Seed:              1,
		TransmissionRange: 150,
		Tracer:            obs.NewTracer(nil, ring),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(rt, params)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, rt: rt, p: p}, ring
}

func countKind(ring *obs.Ring, kind obs.EventKind) int {
	n := 0
	for _, e := range ring.Snapshot() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// burstJoin fires n simultaneous joins one hop from a head at (500,500).
func burstJoin(h *harness, at time.Duration, first radio.NodeID, n int) {
	for i := 0; i < n; i++ {
		h.arriveAt(at, first+radio.NodeID(i), 500+float64(i%8)*12, 560+float64(i/8)*12)
	}
}

// burstJoinOrigin fires n simultaneous joins one hop from a head at the
// origin. A single-head network commits ballots synchronously on its own
// vote, so overlap tests need the twoHeadChain topology where each ballot
// waits a multi-hop round trip for the QDSet member's vote.
func burstJoinOrigin(h *harness, at time.Duration, first radio.NodeID, n int) {
	for i := 0; i < n; i++ {
		h.arriveAt(at, first+radio.NodeID(i), 40+float64(i%8)*8, 60+float64(i/8)*20)
	}
}

// TestBallotWindowSerialQueues pins the BallotWindow=1 discipline: a burst
// of simultaneous requests is served strictly one ballot at a time (no
// ballot_pipelined events), the FIFO queue loses none of them, and every
// node ends configured with a unique address.
func TestBallotWindowSerialQueues(t *testing.T) {
	params := smallSpace()
	params.BallotWindow = 1
	h, ring := newTracedHarness(t, params)
	twoHeadChain(h)
	burstJoinOrigin(h, 60*time.Second, 4, 6)
	h.runUntil(140 * time.Second)

	for i := radio.NodeID(4); i <= 9; i++ {
		if !h.p.IsConfigured(i) {
			t.Errorf("node %d unconfigured under serial window", i)
		}
	}
	h.assertNoConflicts()
	if n := countKind(ring, obs.EvBallotPipelined); n != 0 {
		t.Errorf("serial window emitted %d ballot_pipelined events", n)
	}
}

// TestBallotPipelinedOverlap: without a window bound, the same burst runs
// concurrent ballots — observable as ballot_pipelined events — and still
// assigns unique addresses.
func TestBallotPipelinedOverlap(t *testing.T) {
	h, ring := newTracedHarness(t, smallSpace())
	twoHeadChain(h)
	burstJoinOrigin(h, 60*time.Second, 4, 6)
	h.runUntil(140 * time.Second)

	for i := radio.NodeID(4); i <= 9; i++ {
		if !h.p.IsConfigured(i) {
			t.Errorf("node %d unconfigured under pipelining", i)
		}
	}
	h.assertNoConflicts()
	if n := countKind(ring, obs.EvBallotPipelined); n == 0 {
		t.Error("simultaneous burst produced no ballot_pipelined events")
	}
}

// TestPipelinedDeterministic pins the acceptance criterion that the
// pipelined+cached path is a deterministic function of the seed: two runs
// of the same scenario produce the identical final address map.
func TestPipelinedDeterministic(t *testing.T) {
	run := func() map[radio.NodeID]addrspace.Addr {
		params := smallSpace()
		params.BallotWindow = 4
		params.VoteCacheTTL = 5 * time.Second
		h := newHarness(t, params)
		h.arriveAt(0, 0, 500, 500)
		burstJoin(h, 20*time.Second, 1, 10)
		h.departAt(50*time.Second, 3, false)
		h.departAt(55*time.Second, 7, true)
		burstJoin(h, 60*time.Second, 11, 4)
		h.runUntil(120 * time.Second)
		h.assertNoConflicts()
		out := make(map[radio.NodeID]addrspace.Addr)
		for id := radio.NodeID(0); id <= 14; id++ {
			if ip, ok := h.p.IP(id); ok {
				out[id] = ip
			}
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs configured %d vs %d nodes", len(a), len(b))
	}
	for id, ip := range a {
		if b[id] != ip {
			t.Errorf("node %d: run1 %v, run2 %v", id, ip, b[id])
		}
	}
}

// twoHeadParams builds the vote-cache scenario: head 0 at the origin with
// head 3 (via relays 1, 2) as its only QDSet member.
func twoHeadChain(h *harness) {
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(10*time.Second, 1, 100, 0)
	h.arriveAt(20*time.Second, 2, 200, 0)
	h.arriveAt(30*time.Second, 3, 300, 0) // 3 hops from head 0: new head
}

// TestVoteCacheHitsUnderChurn: with the cache enabled, sequential joins at
// one head stop re-polling its unchanged QDSet — vote_cache_hit events
// appear and every join still gets a unique address.
func TestVoteCacheHitsUnderChurn(t *testing.T) {
	params := smallSpace()
	params.VoteCacheTTL = 30 * time.Second
	h, ring := newTracedHarness(t, params)
	twoHeadChain(h)
	for i := 0; i < 6; i++ {
		h.arriveAt(60*time.Second+time.Duration(i)*2*time.Second, radio.NodeID(4+i), 50, 50)
	}
	h.runUntil(120 * time.Second)

	for i := radio.NodeID(4); i <= 9; i++ {
		if !h.p.IsConfigured(i) {
			t.Errorf("node %d unconfigured with vote cache on", i)
		}
	}
	h.assertNoConflicts()
	if n := countKind(ring, obs.EvVoteCacheHit); n == 0 {
		t.Error("sequential joins produced no vote_cache_hit events")
	}
}

// TestVoteCacheMembershipInvalidate: a QDSet member crashing mid-run must
// drop its cache entry (vote_cache_invalidate) rather than letting the
// allocator keep synthesizing votes for a dead head, and later joins still
// configure against the shrunken quorum.
func TestVoteCacheMembershipInvalidate(t *testing.T) {
	params := smallSpace()
	params.VoteCacheTTL = 60 * time.Second
	h, ring := newTracedHarness(t, params)
	twoHeadChain(h)
	h.arriveAt(60*time.Second, 4, 50, 50) // populates the cache at head 0
	h.departAt(80*time.Second, 3, false)  // QDSet member crashes
	h.arriveAt(100*time.Second, 5, -50, 50)
	h.runUntil(140 * time.Second)

	if !h.p.IsConfigured(5) {
		t.Error("join after member crash unconfigured")
	}
	h.assertNoConflicts()
	invalidated := false
	for _, e := range ring.Snapshot() {
		if e.Kind == obs.EvVoteCacheInvalidate && e.Node == 0 && e.Peer == 3 {
			invalidated = true
		}
	}
	if !invalidated {
		t.Error("no vote_cache_invalidate for the crashed QDSet member")
	}
}

// TestSelfReclaimDropsVoteCache: a self-reclamation that frees a leaked
// lease rewrites the head's own pool behind its commit path, so no cached
// voter may vouch for that pool afterwards. The voter re-confirmed 1.5 s
// into the window outlives the invalidations the REC_REP reports cause.
func TestSelfReclaimDropsVoteCache(t *testing.T) {
	params := smallSpace()
	params.VoteCacheTTL = 60 * time.Second
	h := newHarness(t, params)
	twoHeadChain(h)
	var leaked addrspace.Addr
	h.rt.Sim.ScheduleAt(60*time.Second, func() {
		nd := h.p.nodes[0]
		var ok bool
		if leaked, ok = nd.pools.FirstFree(); !ok {
			t.Fatal("head 0 has no free address to leak")
		}
		if _, err := nd.pools.Mark(leaked, addrspace.Occupied); err != nil { // granted, never configured
			t.Fatal(err)
		}
		h.p.initiateReclamation(nd, nd.id, nd.ip)
	})
	h.rt.Sim.ScheduleAt(61500*time.Millisecond, func() { h.p.nodes[0].voteCache.confirm(3, h.rt.Sim.Now()) })
	h.runUntil(65 * time.Second)

	nd := h.p.nodes[0]
	if e, _ := nd.pools.Get(leaked); e.Status != addrspace.Free {
		t.Fatalf("leaked %v is %v after self-reclamation, want free", leaked, e.Status)
	}
	if n := nd.voteCache.size(); n != 0 {
		t.Errorf("own pool rewritten by self-reclamation, yet %d cached voters still vouch for it", n)
	}
}

// TestVoteCacheTTL pins the stale-timestamp edge on the cache type itself:
// an entry one tick past the TTL is rejected exactly once with
// expired=true (the caller's cue to trace the invalidation) and is gone on
// the second lookup.
func TestVoteCacheTTL(t *testing.T) {
	c := newVoteCache(10 * time.Second)
	c.confirm(7, 100*time.Second)
	if ok, _ := c.fresh(7, 110*time.Second); !ok {
		t.Error("entry at exactly TTL rejected")
	}
	ok, expired := c.fresh(7, 110*time.Second+time.Nanosecond)
	if ok || !expired {
		t.Errorf("stale entry: ok=%v expired=%v, want false/true", ok, expired)
	}
	ok, expired = c.fresh(7, 111*time.Second)
	if ok || expired {
		t.Errorf("second lookup after expiry: ok=%v expired=%v, want false/false", ok, expired)
	}
	if c.size() != 0 {
		t.Errorf("stale entry not evicted: size %d", c.size())
	}

	// A disabled cache is a nil receiver and every operation is a no-op.
	var off *voteCache
	off.confirm(1, 0)
	if ok, expired := off.fresh(1, 0); ok || expired {
		t.Error("nil cache returned a hit")
	}
	if off.invalidate(1) || off.invalidateAll() != 0 || off.size() != 0 {
		t.Error("nil cache mutated")
	}
}

// TestVoteCacheConcurrentInvalidate hammers hits against invalidations
// from concurrent goroutines; run with -race this pins that a concurrent
// driver (the daemon's handler pool) cannot corrupt the cache or observe a
// hit for an entry being invalidated.
func TestVoteCacheConcurrentInvalidate(t *testing.T) {
	c := newVoteCache(time.Hour)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				m := radio.NodeID(i % 8)
				c.confirm(m, time.Duration(i))
				c.fresh(m, time.Duration(i))
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if i%3 == 0 {
					c.invalidateAll()
				} else {
					c.invalidate(radio.NodeID(i % 8))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.size() > 8 {
		t.Errorf("cache grew past member count: %d", c.size())
	}
}

// TestSimHealthUnderAndRestored closes the ROADMAP item 3 leftover: the
// replica-health monitor now runs inside the simulator's cluster heads.
// Killing one of a head's two replica holders while a spare head exists in
// the component must raise replica_underreplicated on the owner, and the
// shrink-then-recruit repair must follow with replica_restored.
func TestSimHealthUnderAndRestored(t *testing.T) {
	params := smallSpace()
	params.MinReplicas = 2
	params.Td = 10 * time.Second // hold the under state across health ticks
	h, ring := newTracedHarness(t, params)
	// Heads 0, 3, 6 along a relay line, plus head 9 on a column hanging
	// off head 6. Node 0's QDSet settles at {3, 6}; 9 pairs with {6, 3}
	// and stays out of 0's quorum — the recruitable spare. The column's
	// first relay (600,100) also reaches (500,0), so killing head 6 does
	// not partition the branch.
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(10*time.Second, 1, 100, 0)
	h.arriveAt(20*time.Second, 2, 200, 0)
	h.arriveAt(30*time.Second, 3, 300, 0)
	h.arriveAt(40*time.Second, 4, 400, 0)
	h.arriveAt(50*time.Second, 5, 500, 0)
	h.arriveAt(60*time.Second, 6, 600, 0)
	h.arriveAt(70*time.Second, 7, 600, 100)
	h.arriveAt(80*time.Second, 8, 600, 200)
	h.arriveAt(90*time.Second, 9, 600, 300)

	h.departAt(140*time.Second, 6, false) // holder crashes
	h.runUntil(200 * time.Second)

	var underSeq, restoredSeq uint64
	checks := 0
	for _, e := range ring.Snapshot() {
		if e.Node != 0 {
			continue
		}
		switch e.Kind {
		case obs.EvHealthCheck:
			checks++
		case obs.EvReplicaUnderreplicated:
			if underSeq == 0 {
				underSeq = e.Seq
			}
		case obs.EvReplicaRestored:
			if e.Seq > underSeq && restoredSeq == 0 {
				restoredSeq = e.Seq
			}
		}
	}
	if checks == 0 {
		t.Error("head 0 ran no health checks")
	}
	if underSeq == 0 {
		t.Fatal("holder crash raised no replica_underreplicated on the owner")
	}
	if restoredSeq == 0 {
		t.Fatal("no replica_restored after the recruit repair")
	}
	h.assertNoConflicts()
}
