package daemon

// The owner's write path: a commit goes at once to the members its round
// asked, the requestor and the failover successor, and rides the next
// message to every other member.

import (
	"net/http"
	"slices"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// TestWriteSet: the write set is the round's voters, the successor (the
// lowest-ID live peer) and the requestor, sent in ascending ID order with
// the requestor last; every other live peer is deferred, and the dead get
// nothing.
func TestWriteSet(t *testing.T) {
	ids := func(v ...radio.NodeID) []radio.NodeID { return v }
	cases := []struct {
		name      string
		n         int            // roster 1..n, self 1
		dead      []radio.NodeID // members declared dead
		asked     []radio.NodeID // the committing round's voters
		retry     bool           // asked is what a retried round asks instead
		requestor radio.NodeID
		now       []radio.NodeID // in send order
		later     []radio.NodeID
	}{
		{name: "n=3 asks both, nothing deferred", n: 3, asked: ids(2, 3), requestor: 1, now: ids(2, 3)},
		{name: "n=3 member requests", n: 3, asked: ids(2, 3), requestor: 2, now: ids(3, 2)},
		{name: "n=4 asks all three, requestor last", n: 4, asked: ids(2, 3, 4), requestor: 3, now: ids(2, 4, 3)},
		{name: "n=5 owner requests, successor asked", n: 5, asked: ids(2, 4, 5), requestor: 1, now: ids(2, 4, 5), later: ids(3)},
		{name: "n=5 owner requests, successor not asked", n: 5, asked: ids(3, 4, 5), requestor: 1, now: ids(2, 3, 4, 5)},
		{name: "n=5 requestor asked", n: 5, asked: ids(2, 3, 5), requestor: 3, now: ids(2, 5, 3), later: ids(4)},
		{name: "n=5 requestor not asked", n: 5, asked: ids(2, 3, 4), requestor: 5, now: ids(2, 3, 4, 5)},
		{name: "n=5 requestor is the successor", n: 5, asked: ids(3, 4, 5), requestor: 2, now: ids(3, 4, 5, 2)},
		{name: "n=7 successor and requestor asked", n: 7, asked: ids(2, 4, 6, 7), requestor: 4, now: ids(2, 6, 7, 4), later: ids(3, 5)},
		{name: "n=7 successor not asked", n: 7, asked: ids(3, 5, 6, 7), requestor: 1, now: ids(2, 3, 5, 6, 7), later: ids(4)},
		{name: "n=7 requestor not asked", n: 7, asked: ids(2, 3, 4, 5), requestor: 6, now: ids(2, 3, 4, 5, 6), later: ids(7)},
		{name: "n=7 neither asked", n: 7, asked: ids(3, 4, 5, 6), requestor: 7, now: ids(2, 3, 4, 5, 6, 7)},
		{name: "a joiner is not a member yet", n: 5, asked: ids(2, 3, 4), requestor: 9, now: ids(2, 3, 4), later: ids(5)},
		{name: "a free reaches the successor alone", n: 5, requestor: 0, now: ids(2), later: ids(3, 4, 5)},
		{name: "n=5 retried round writes every live peer", n: 5, retry: true, requestor: 4, now: ids(2, 3, 5, 4)},
		{name: "n=7 retried round writes every live peer", n: 7, retry: true, dead: ids(3), requestor: 1, now: ids(2, 4, 5, 6, 7)},
		{name: "a dead successor passes the role on", n: 5, dead: ids(2), asked: ids(4, 5), requestor: 1, now: ids(3, 4, 5)},
		{name: "a voter dead since it was asked gets nothing", n: 5, dead: ids(2), asked: ids(2, 3, 4), requestor: 1, now: ids(3, 4), later: ids(5)},
		{name: "a dead requestor gets nothing", n: 5, dead: ids(5), asked: ids(2, 3, 4), requestor: 5, now: ids(2, 3, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &Daemon{cfg: Config{ID: 1}}
			for id := radio.NodeID(1); id <= radio.NodeID(tc.n); id++ {
				d.roster = append(d.roster, &member{id: id, holder: id != 1, dead: slices.Contains(tc.dead, id)})
			}
			asked := tc.asked
			if tc.retry {
				for _, m := range d.voters(&ballot{attempts: 2}) {
					asked = append(asked, m.id)
				}
			}
			now, later := d.writeSet(asked, tc.requestor)
			var gotNow, gotLater []radio.NodeID
			for _, m := range now {
				gotNow = append(gotNow, m.id)
			}
			for _, m := range later {
				gotLater = append(gotLater, m.id)
			}
			if !slices.Equal(gotNow, tc.now) || !slices.Equal(gotLater, tc.later) {
				t.Errorf("writeSet = now %v, later %v; want now %v, later %v", gotNow, gotLater, tc.now, tc.later)
			}
		})
	}
}

// occupiedAt reports how many of addrs d's table shows occupied.
func occupiedAt(t *testing.T, d *Daemon, addrs []addrspace.Addr) int {
	t.Helper()
	n := 0
	onLoopSync(t, d, func() {
		for _, a := range addrs {
			if e, ok := d.table.Get(a); ok && e.Status == addrspace.Occupied {
				n++
			}
		}
	})
	return n
}

// pendingWrites reads /v1/members at the owner: how many writes it holds
// back for member id.
func pendingWrites(t *testing.T, owner *Daemon, id radio.NodeID) int {
	t.Helper()
	var mv MembersResponse
	if code := getJSON(t, "http://"+owner.HTTPAddr()+"/v1/members", &mv); code != http.StatusOK {
		t.Fatalf("GET /v1/members: HTTP %d", code)
	}
	i := slices.IndexFunc(mv.Members, func(m MemberInfo) bool { return m.Node == int(id) })
	if i < 0 {
		t.Fatalf("member %d missing from the owner's /v1/members: %+v", id, mv.Members)
	}
	return mv.Members[i].PendingWrites
}

// TestUnaskedMemberTrailsByAtMostOneHeartbeat: on five daemons a first
// round asks three of the four peers. Right after the allocations return,
// the voters and the successor hold them, and the member no round asked
// does not — the owner reports its writes pending on /v1/members. Within
// one HeartbeatInterval every table agrees.
func TestUnaskedMemberTrailsByAtMostOneHeartbeat(t *testing.T) {
	const beat = time.Second
	ds := newCluster(t, 5, func(c *Config) {
		c.HeartbeatInterval = beat
		c.SuspectAfter = 30 * time.Second
		c.HealthInterval = -1 // no replica re-syncs: only heartbeats flush
	})
	waitFormed(t, ds)
	owner, stale := ds[0], ds[4]
	const allocs = 4
	for attempt := 1; ; attempt++ {
		// The stalest member sorts last among the holders a first round
		// picks from, and an unasked voter sends the owner nothing.
		onLoopSync(t, owner, func() { owner.member(stale.ID()).lastSeen = owner.now() - 10*beat })
		deferred0, pending0 := counter(owner, "daemon.writes_deferred"), pendingWrites(t, owner, stale.ID())
		var addrs []addrspace.Addr
		for i := 0; i < allocs; i++ {
			v, code := allocate(t, owner)
			if code != http.StatusOK {
				t.Fatalf("allocate %d: HTTP %d", i, code)
			}
			addrs = append(addrs, addrspace.Addr(v.Value))
		}
		returned := time.Now()
		for _, d := range ds[1:4] {
			waitFor(t, beat/4, "a voter to apply the commits", func() bool { return occupiedAt(t, d, addrs) == allocs })
		}
		atStale := occupiedAt(t, stale, addrs)
		// A heartbeat between the allocations and the look at the stale
		// member's table may have flushed the queue: then start over.
		if pending := pendingWrites(t, owner, stale.ID()); pending != pending0+allocs {
			if attempt == 5 {
				t.Fatalf("%d attempts, and every time a heartbeat flushed the stale member's writes (%d pending)", attempt, pending)
			}
			t.Logf("attempt %d: %d writes pending for the stale member, want %d; a heartbeat intervened", attempt, pending, pending0+allocs)
			continue
		}
		if atStale != 0 {
			t.Errorf("the unasked member shows %d of %d new allocations while the owner holds all of them back", atStale, allocs)
		}
		if got := counter(owner, "daemon.writes_deferred") - deferred0; got != allocs {
			t.Errorf("daemon.writes_deferred rose by %d, want %d", got, allocs)
		}
		waitFor(t, beat+beat/2, "every table to agree", func() bool {
			for _, d := range ds {
				if occupiedAt(t, d, addrs) != allocs {
					return false
				}
			}
			return true
		})
		if lag := time.Since(returned); lag > beat+beat/4 {
			t.Errorf("tables agreed %v after the allocations returned, want within one heartbeat (%v)", lag, beat)
		}
		return
	}
}

// TestDeferredWritesStayBounded: with heartbeats effectively off, nothing
// but the bound flushes the writes a never-asked member is owed. 200
// allocations leave no queue above maxPendingWrites, the flushes reach the
// member, and no send fails.
func TestDeferredWritesStayBounded(t *testing.T) {
	ds := newCluster(t, 5, func(c *Config) {
		c.Space = addrspace.Block{Lo: 0x0A010001, Hi: 0x0A010100} // 256 addresses
		c.HeartbeatInterval = time.Hour
		c.SuspectAfter = 2 * time.Hour
		c.HealthInterval = -1
	})
	waitFormed(t, ds)
	owner := ds[0]
	// The successor gets every write at once: make another member the
	// stalest, so that no first round asks it.
	onLoopSync(t, owner, func() { owner.member(5).lastSeen = owner.now() - time.Minute })
	sendErr0 := make([]int64, len(ds)) // the joins' CH_REQ that left before newCluster's AddPeer
	for i, d := range ds {
		sendErr0[i] = counter(d, "daemon.send_err")
	}
	var addrs []addrspace.Addr
	for i := 0; i < 200; i++ {
		v, code := allocate(t, owner)
		if code != http.StatusOK {
			t.Fatalf("allocate %d: HTTP %d", i, code)
		}
		addrs = append(addrs, addrspace.Addr(v.Value))
		most := 0
		onLoopSync(t, owner, func() {
			for _, m := range owner.roster {
				most = max(most, len(m.pending))
			}
		})
		if most > maxPendingWrites {
			t.Fatalf("after allocation %d a member has %d writes pending, bound %d", i, most, maxPendingWrites)
		}
	}
	if n := counter(owner, "daemon.writes_deferred"); n < 200 {
		t.Errorf("daemon.writes_deferred = %d after 200 allocations on five daemons, want at least 200", n)
	}
	// Every queue that reached the bound was flushed: each member holds all
	// but at most the last maxPendingWrites-1 allocations.
	flushed := addrs[:len(addrs)-(maxPendingWrites-1)]
	for _, d := range ds[1:] {
		waitFor(t, 5*time.Second, "flushed writes to arrive", func() bool { return occupiedAt(t, d, flushed) == len(flushed) })
	}
	for i, d := range ds {
		if n := counter(d, "daemon.send_err") - sendErr0[i]; n != 0 {
			t.Errorf("daemon %d: daemon.send_err rose by %d, want 0", d.ID(), n)
		}
	}
}

// TestFailoverAfterDeferredWrites: the owner dies holding writes back for
// a lagging member, with the failover successor among the voters, as a
// first round always asks it. The successor gets every commit at once — or,
// for a commit still queued at the owner when it died, from the holder's
// defense — so within one reclamation of its promotion its table holds
// every address granted before the crash, and no address is granted twice.
func TestFailoverAfterDeferredWrites(t *testing.T) {
	ds := newCluster(t, 7, func(c *Config) {
		c.HeartbeatInterval = 500 * time.Millisecond
		c.SuspectAfter = 1500 * time.Millisecond
		c.HealthInterval = -1
		c.TraceRing = 1 << 14
	})
	waitFormed(t, ds)
	owner, successor, lagging := ds[0], ds[1], ds[6]
	granted := make(map[addrspace.Addr]radio.NodeID)
	grant := func(d *Daemon) {
		t.Helper()
		v, code := allocate(t, d)
		if code != http.StatusOK {
			t.Fatalf("allocate at %d: HTTP %d", d.ID(), code)
		}
		a := addrspace.Addr(v.Value)
		if prev, dup := granted[a]; dup {
			t.Fatalf("%v granted to %d and again to %d", a, prev, d.ID())
		}
		granted[a] = d.ID()
	}

	// A first round on seven daemons asks four of the six peers: the
	// successor, the requestor and the two freshest others. Make the
	// lagging member the stalest, so that no round asks it. Allocate
	// through members — a member's lease survives the owner's reclamation,
	// the owner's own would not — and crash the owner once it holds writes
	// back for the lagging member.
	for attempt := 1; ; attempt++ {
		seq := lastSeq(owner)
		onLoopSync(t, owner, func() {
			owner.member(lagging.ID()).lastSeen = owner.now() - time.Second
		})
		for i := 0; i < 8; i++ {
			grant(ds[2+i%2])
		}
		lagged := false
		onLoopSync(t, owner, func() {
			lagged = len(owner.member(lagging.ID()).pending) > 0
		})
		if lagged {
			if !votesAsked(owner, seq, successor.ID()) {
				t.Fatal("no ballot round asked the successor for its vote")
			}
			break
		}
		if attempt == 10 {
			t.Fatal("no attempt left the lagging member behind")
		}
	}
	before := make([]addrspace.Addr, 0, len(granted))
	for a := range granted {
		before = append(before, a)
	}
	owner.Kill()

	survivors := ds[1:]
	waitFor(t, 10*time.Second, "every survivor to follow the successor", func() bool {
		for _, d := range survivors {
			var mv MembersResponse
			if getJSON(t, "http://"+d.HTTPAddr()+"/v1/members", &mv) != http.StatusOK || mv.Owner != int(successor.ID()) {
				return false
			}
		}
		return true
	})
	// A commit the owner had queued but not sent when it died comes back
	// through the holder's defense in the promoted owner's reclamation.
	waitFor(t, successor.cfg.ReclaimSettle, "the promoted owner's table to show every address granted before the crash", func() bool {
		return occupiedAt(t, successor, before) == len(before)
	})
	for i := 0; i < 12; i++ {
		grant(survivors[i%len(survivors)])
	}
	if n := occupiedAt(t, successor, before); n != len(before) {
		t.Errorf("after more allocations the promoted owner shows %d of the %d earlier grants occupied", n, len(before))
	}
}

// votesAsked reports whether d sent QUORUM_CLT to peer after the event
// numbered seq.
func votesAsked(d *Daemon, seq uint64, peer radio.NodeID) bool {
	for _, e := range d.Trace() {
		if e.Seq > seq && e.Kind == obs.EvTransportSend && e.Detail == msg.TQuorumClt && e.Peer == peer {
			return true
		}
	}
	return false
}
