package daemon

// Allocation-path tests: candidate selection over the table's free index,
// ballot retries and the tally, forwarded-allocation waiters, holder
// attribution, and the occupancy counts /v1/status and /v1/metrics serve.

import (
	"fmt"
	"io"
	"maps"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// onLoopSync runs fn on d's event loop and waits for it.
func onLoopSync(t *testing.T, d *Daemon, fn func()) {
	t.Helper()
	ran := make(chan struct{})
	d.post(func() { fn(); close(ran) })
	select {
	case <-ran:
	case <-time.After(10 * time.Second):
		t.Fatal("event loop did not run the closure")
	}
}

func counter(d *Daemon, name string) int64 { return d.Metrics().Snapshot().Counters()[name] }

func waitFormed(t *testing.T, ds []*Daemon) {
	t.Helper()
	want := make([]int, len(ds))
	for i := range ds {
		want[i] = i + 1
	}
	waitElectorate(t, "cluster formation", ds, want...)
}

// TestCandidatesLowestFirstSkipPending: the owner grants the lowest free
// address, passes over one that has a ballot in flight, takes a freed low
// address before any higher one, and answers 409 once the space is full.
func TestCandidatesLowestFirstSkipPending(t *testing.T) {
	d := newSoloOwner(t)
	next := testSpace.Lo + 1 // the owner itself holds Lo
	expect := func(want addrspace.Addr) {
		t.Helper()
		v, code := allocate(t, d)
		if code != http.StatusOK || addrspace.Addr(v.Value) != want {
			t.Fatalf("allocate: HTTP %d addr %s, want 200 %v", code, v.Addr, want)
		}
	}
	expect(next)
	expect(next + 1)

	// An open ballot of the owner's own, under an ID its ballots never reach.
	const open = ^uint64(0)
	reserve := func(a addrspace.Addr) {
		if !d.grants.Reserve(a, d.cfg.ID, open, d.now()) {
			t.Errorf("reserve %v refused", a)
		}
	}
	onLoopSync(t, d, func() { reserve(next + 2) })
	expect(next + 3)
	onLoopSync(t, d, func() { d.grants.Close(next+2, d.cfg.ID, open) })
	expect(next + 2)

	onLoopSync(t, d, func() {
		if _, err := d.table.Mark(next, addrspace.Free); err != nil {
			t.Error(err)
		}
	})
	expect(next)

	for a := next + 4; a <= testSpace.Hi; a++ {
		expect(a)
	}
	if v, code := allocate(t, d); code != http.StatusConflict {
		t.Fatalf("allocate on a full space: HTTP %d addr %s, want 409", code, v.Addr)
	}
	// A pending ballot on the very last address must not wrap the search.
	onLoopSync(t, d, func() {
		if _, err := d.table.Mark(testSpace.Hi, addrspace.Free); err != nil {
			t.Error(err)
		}
		reserve(testSpace.Hi)
	})
	if v, code := allocate(t, d); code != http.StatusConflict {
		t.Fatalf("allocate with only a pending address free: HTTP %d addr %s, want 409", code, v.Addr)
	}
}

// TestBallotRetryMovesToNextCandidate: a ballot round that times out is
// retried on the next address. Retrying the same one cannot succeed — every
// voter that granted the timed-out round answers the new ballot Busy for
// 2*QuorumTimeout — so the allocation used to burn all maxProposals rounds
// and fail although the slow voters were back a moment later.
func TestBallotRetryMovesToNextCandidate(t *testing.T) {
	ds := newCluster(t, 4, func(c *Config) {
		c.SuspectAfter = 30 * time.Second // a stalled voter is slow, not dead
		c.HealthInterval = -1
	})
	waitFormed(t, ds)
	owner := ds[0]
	first, ok := addrspace.Addr(0), false
	onLoopSync(t, owner, func() { first, ok = owner.table.FirstFree() })
	if !ok {
		t.Fatal("no free address after formation")
	}

	// Two of the three voters stop answering for longer than one round:
	// owner + one vote is short of the majority of four.
	stall := owner.cfg.QuorumTimeout + 150*time.Millisecond
	stalled := make(chan struct{}, 2)
	for _, d := range ds[2:] {
		d.post(func() {
			stalled <- struct{}{}
			time.Sleep(stall)
		})
	}
	<-stalled
	<-stalled

	v, code := allocate(t, owner)
	if code != http.StatusOK {
		t.Fatalf("allocate: HTTP %d after %d timeouts and %d retries, want 200",
			code, counter(owner, "daemon.ballot_timeouts"), counter(owner, "daemon.ballot_retries"))
	}
	if got := addrspace.Addr(v.Value); got != first+1 {
		t.Errorf("granted %v, want %v (the candidate after the timed-out %v)", got, first+1, first)
	}
	if to, re := counter(owner, "daemon.ballot_timeouts"), counter(owner, "daemon.ballot_retries"); to != 1 || re != 1 {
		t.Errorf("ballot_timeouts = %d, ballot_retries = %d; want 1 and 1", to, re)
	}
}

// TestTimedOutAllocationDoesNotStarveNext: an HTTP caller that gives up on
// a forwarded allocation takes its waiter with it. Waiters used to be a
// FIFO popped by whichever grant arrived next, so after one lost request
// every later grant at that member went to the previous, dead caller. The
// second half covers the grant that arrives after its caller left: it goes
// back to the owner instead of leaking.
func TestTimedOutAllocationDoesNotStarveNext(t *testing.T) {
	ds := newCluster(t, 2, func(c *Config) {
		c.AllocTimeout = 300 * time.Millisecond
		c.SuspectAfter = 30 * time.Second
		c.HealthInterval = -1 // no REPLICA_DIST refresh to repair ownerID below
	})
	waitFormed(t, ds)
	owner, member := ds[0], ds[1]

	// Lose one forwarded request: it goes to a peer that does not exist.
	onLoopSync(t, member, func() { member.ownerID = 99 })
	if _, code := allocate(t, member); code != http.StatusServiceUnavailable {
		t.Fatalf("allocate toward a missing owner: HTTP %d, want 503", code)
	}
	onLoopSync(t, member, func() { member.ownerID = owner.ID() })

	for i := 0; i < 3; i++ {
		if _, code := allocate(t, member); code != http.StatusOK {
			t.Fatalf("allocate %d after a timed-out one: HTTP %d, want 200", i+1, code)
		}
	}
	onLoopSync(t, member, func() {
		if n := len(member.allocWaiters); n != 0 {
			t.Errorf("%d waiters left behind", n)
		}
	})

	// Now the request arrives but the owner answers too late.
	before := getStatus(t, owner).Occupied
	owner.post(func() { time.Sleep(owner.cfg.AllocTimeout + 200*time.Millisecond) })
	if _, code := allocate(t, member); code != http.StatusServiceUnavailable {
		t.Fatalf("allocate at a stalled owner: HTTP %d, want 503", code)
	}
	waitFor(t, 10*time.Second, "the orphaned grant to be returned", func() bool {
		return counter(member, "daemon.alloc_orphan_grants") == 1 &&
			counter(owner, "daemon.addrs_returned") == 1
	})
	if after := getStatus(t, owner).Occupied; after != before {
		t.Errorf("owner has %d addresses occupied after the orphaned grant came back, want %d", after, before)
	}
	if _, code := allocate(t, member); code != http.StatusOK {
		t.Fatalf("allocate after the orphaned grant: HTTP %d, want 200", code)
	}
}

// TestForwardedAllocationSendsNoComAck: a member serving N allocations
// sends the owner N COM_REQ and no COM_ACK — the transport's ack already
// confirms the grant — while an owner still accepts a COM_ACK from a peer
// that sends one, as liveness.
func TestForwardedAllocationSendsNoComAck(t *testing.T) {
	ds := newCluster(t, 3, func(c *Config) { c.TraceRing = 1 << 14 })
	waitFormed(t, ds)
	owner, member := ds[0], ds[1]

	const n = 20
	for i := 0; i < n; i++ {
		if _, code := allocate(t, member); code != http.StatusOK {
			t.Fatalf("allocate %d at the member: HTTP %d", i+1, code)
		}
	}
	sent := map[string]int{}
	for _, e := range member.Trace() {
		if e.Kind == obs.EvTransportSend {
			sent[e.Detail]++
		}
	}
	if sent[msg.TComReq] != n || sent[msg.TComAck] != 0 {
		t.Errorf("member sent %d COM_REQ and %d COM_ACK for %d allocations, want %d and 0",
			sent[msg.TComReq], sent[msg.TComAck], n, n)
	}

	// A COM_ACK from an older peer, through the codec as it would arrive.
	frame, err := wire.Encode(&wire.Envelope{MsgID: 1, Type: msg.TComAck, Src: member.ID(), Dst: owner.ID(),
		Category: metrics.CatConfig, Hops: 1, Payload: msg.ComAck{Addr: testSpace.Lo + 1}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	unhandled := counter(owner, "daemon.unhandled_msg")
	onLoopSync(t, owner, func() {
		m := owner.member(member.ID())
		m.lastSeen = 0
		owner.handle(env)
		if m.lastSeen == 0 {
			t.Error("a COM_ACK from a member did not count as liveness")
		}
	})
	if got := counter(owner, "daemon.unhandled_msg"); got != unhandled {
		t.Errorf("daemon.unhandled_msg %d -> %d after a COM_ACK", unhandled, got)
	}
}

// TestForwardedAllocationRefusedOnFullSpace: once the space is full, an
// allocation forwarded by a member comes back as the owner's CFG_NACK — a
// prompt 409 at the member — rather than timing out.
func TestForwardedAllocationRefusedOnFullSpace(t *testing.T) {
	ds := newCluster(t, 2, func(c *Config) { c.Space = addrspace.Block{Lo: testSpace.Lo, Hi: testSpace.Lo + 3} })
	waitFormed(t, ds)
	owner, member := ds[0], ds[1]

	// The two daemons hold two of the four addresses; the member takes the rest.
	for i := 0; i < 2; i++ {
		if v, code := allocate(t, member); code != http.StatusOK {
			t.Fatalf("allocate %d at the member: HTTP %d addr %s", i+1, code, v.Addr)
		}
	}
	fails := counter(owner, "daemon.alloc_fail")
	start := time.Now()
	if v, code := allocate(t, member); code != http.StatusConflict {
		t.Fatalf("allocate at the member on a full space: HTTP %d addr %s, want 409", code, v.Addr)
	}
	if took, limit := time.Since(start), member.cfg.AllocTimeout/4; took > limit {
		t.Errorf("refusal took %v, want well inside AllocTimeout (%v)", took, limit)
	}
	if got := counter(owner, "daemon.alloc_fail"); got <= fails {
		t.Errorf("owner daemon.alloc_fail %d -> %d, want it to count the refusal", fails, got)
	}
}

var gaugeLine = regexp.MustCompile(`(?m)^quorumd_addresses_(occupied|free) (\d+)$`)

// occupancyGauges scrapes the two pool gauges from /v1/metrics.
func occupancyGauges(t *testing.T, d *Daemon) (occupied, free uint32, present bool) {
	t.Helper()
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	matches := gaugeLine.FindAllStringSubmatch(string(body), -1)
	for _, m := range matches {
		n, err := strconv.ParseUint(m[2], 10, 32)
		if err != nil {
			t.Fatal(err)
		}
		if m[1] == "occupied" {
			occupied = uint32(n)
		} else {
			free = uint32(n)
		}
	}
	if len(matches) != 0 && len(matches) != 2 {
		t.Fatalf("want both occupancy gauges or neither, got %v", matches)
	}
	return occupied, free, len(matches) == 2
}

// TestOccupancyCountsMatchRecount: /v1/status Free/Occupied and the
// /v1/metrics gauges come from the table's counter; on every daemon they
// add up to the block and equal a per-address recount, after allocations
// and after a crashed member's addresses were reclaimed.
func TestOccupancyCountsMatchRecount(t *testing.T) {
	ds := newCluster(t, 3)
	waitFormed(t, ds)
	check := func(d *Daemon, want uint32) error {
		recount := uint32(0)
		onLoopSync(t, d, func() {
			for a := testSpace.Lo; a <= testSpace.Hi; a++ {
				if e, _ := d.table.Get(a); e.Status == addrspace.Occupied {
					recount++
				}
			}
		})
		v := getStatus(t, d)
		occ, free, present := occupancyGauges(t, d)
		switch {
		case recount != want:
			return fmt.Errorf("daemon %d: %d addresses occupied, want %d", d.ID(), recount, want)
		case v.Occupied != recount || v.Free+v.Occupied != testSpace.Size():
			return fmt.Errorf("daemon %d: status says %d occupied / %d free, recount %d of %d",
				d.ID(), v.Occupied, v.Free, recount, testSpace.Size())
		case !present || occ != v.Occupied || free != v.Free:
			return fmt.Errorf("daemon %d: gauges %d occupied / %d free (present %v), status %d / %d",
				d.ID(), occ, free, present, v.Occupied, v.Free)
		}
		return nil
	}
	converge := func(what string, daemons []*Daemon, want uint32) {
		t.Helper()
		var last error
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			last = nil
			for _, d := range daemons {
				if err := check(d, want); err != nil {
					last = err
				}
			}
			if last == nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Fatalf("%s: %v", what, last)
	}

	converge("after formation", ds, 3)
	for _, d := range []*Daemon{ds[2], ds[2], ds[0], ds[1]} {
		if _, code := allocate(t, d); code != http.StatusOK {
			t.Fatalf("allocate at %d: HTTP %d", d.ID(), code)
		}
	}
	converge("after four allocations", ds, 7)

	ds[2].Kill() // its own address and its two leases come back
	waitFor(t, 30*time.Second, "reclamation", func() bool {
		v, err := tryStatus(ds[0])
		return err == nil && electorateIs(v, 1, 2)
	})
	converge("after reclaiming daemon 3", ds[:2], 4)
}

// TestBallotReadsAReplicaHolder: under a bounded replication target the
// members outside the replica set hold no table, so their votes have
// nothing to read. The ballot used to count them anyway — the owner and the
// two non-holders of five daemons made a majority — and granted an address
// while both replica holders were stalled and would have reported it
// occupied.
func TestBallotReadsAReplicaHolder(t *testing.T) {
	ds := newCluster(t, 5, func(c *Config) {
		c.ReplicationTarget = 3
		c.HealthInterval = -1
		c.SuspectAfter = 30 * time.Second // a stalled holder is slow, not dead
		c.QuorumTimeout = time.Second
	})
	waitFormed(t, ds)
	owner := ds[0]
	var holders []*Daemon
	first, ok := addrspace.Addr(0), false
	onLoopSync(t, owner, func() {
		first, ok = owner.table.FirstFree()
		for _, m := range owner.roster {
			if m.holder {
				holders = append(holders, ds[m.id-1])
			}
		}
	})
	if !ok || len(holders) != 2 {
		t.Fatalf("after formation: first free %v (%v), %d designated holders, want 2", first, ok, len(holders))
	}
	taken := addrspace.Entry{Status: addrspace.Occupied, Version: 9}
	for _, h := range holders {
		onLoopSync(t, h, func() {
			if err := h.table.Set(first, taken); err != nil {
				t.Error(err)
			}
		})
	}
	stalled := make(chan struct{}, len(holders))
	for _, h := range holders {
		h.post(func() {
			stalled <- struct{}{}
			time.Sleep(300 * time.Millisecond)
		})
	}
	for range holders {
		<-stalled
	}

	v, code := allocate(t, owner)
	if code != http.StatusOK {
		t.Fatalf("allocate: HTTP %d", code)
	}
	if got := addrspace.Addr(v.Value); got == first {
		t.Fatalf("granted %v, which the replica holders report occupied", got)
	}
	onLoopSync(t, owner, func() {
		if e, _ := owner.table.Get(first); e != taken {
			t.Errorf("owner's copy of %v is %+v after the ballot read %+v", first, e, taken)
		}
	})
}

// holdersConverge waits until every daemon's /v1/status holders map equals
// the owner's (ds[0]) and fails with both maps when they never do.
func holdersConverge(t *testing.T, what string, ds []*Daemon) {
	t.Helper()
	var want, got map[string]int
	var odd radio.NodeID
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		want, odd = getStatus(t, ds[0]).Holders, 0
		for _, d := range ds[1:] {
			if got = getStatus(t, d).Holders; !maps.Equal(got, want) {
				odd = d.ID()
				break
			}
		}
		if odd == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("%s: daemon %d knows holders %v, the owner %v", what, odd, got, want)
}

// TestEveryMemberKnowsWhoHoldsWhat: every member learns who holds every
// address — the other members' own addresses included, which used to reach
// only the joiner (in its holder map) and never the members that joined
// before it. A promoted owner reclaims and takes returns by that map.
func TestEveryMemberKnowsWhoHoldsWhat(t *testing.T) {
	ds := newCluster(t, 4)
	waitFormed(t, ds)
	holdersConverge(t, "after formation", ds)
	for _, d := range []*Daemon{ds[1], ds[3], ds[0]} {
		if _, code := allocate(t, d); code != http.StatusOK {
			t.Fatalf("allocate at %d: HTTP %d", d.ID(), code)
		}
	}
	holdersConverge(t, "after three allocations", ds)
}

// TestReturnOnlyWhatYouHold: a member that returns an address another
// member holds frees nothing. The owner used to free it, and hand it out
// again to the next request.
func TestReturnOnlyWhatYouHold(t *testing.T) {
	ds := newCluster(t, 3)
	waitFormed(t, ds)
	owner, thief, victim := ds[0], ds[1], ds[2]
	v, code := allocate(t, victim)
	if code != http.StatusOK {
		t.Fatalf("allocate at %d: HTTP %d", victim.ID(), code)
	}
	lease := addrspace.Addr(v.Value)

	// The RETURN_ADDR and the allocation request behind it travel the same
	// peer queue, so the owner has handled the first when it answers.
	onLoopSync(t, thief, func() {
		thief.sendTo(owner.ID(), msg.TReturnAddr, metrics.CatConfig,
			msg.ReturnAddr{Configurer: thief.ID(), ConfigurerIP: thief.selfIP, Addr: lease})
	})
	w, code := allocate(t, thief)
	if code != http.StatusOK {
		t.Fatalf("allocate at %d: HTTP %d", thief.ID(), code)
	}
	if addrspace.Addr(w.Value) == lease {
		t.Errorf("%v granted to %d while %d holds it", lease, thief.ID(), victim.ID())
	}
	onLoopSync(t, owner, func() {
		if e, _ := owner.table.Get(lease); e.Status != addrspace.Occupied || owner.holders[lease] != victim.ID() {
			t.Errorf("owner has %v %v, attributed to %d; want occupied, held by %d",
				lease, e.Status, owner.holders[lease], victim.ID())
		}
	})
	if n := counter(owner, "daemon.addrs_returned"); n != 0 {
		t.Errorf("owner counted %d returned addresses, want 0", n)
	}
}
