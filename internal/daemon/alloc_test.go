package daemon

// Allocation-path tests: candidate selection over the table's free index,
// ballot retries, forwarded-allocation waiters, and the occupancy counts
// /v1/status and /v1/metrics serve.

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
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

	onLoopSync(t, d, func() { d.pendingAddrs[next+2] = true })
	expect(next + 3)
	onLoopSync(t, d, func() { delete(d.pendingAddrs, next+2) })
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
		d.pendingAddrs[testSpace.Hi] = true
	})
	if v, code := allocate(t, d); code != http.StatusConflict {
		t.Fatalf("allocate with only a pending address free: HTTP %d addr %s, want 409", code, v.Addr)
	}
}

// TestBallotRetryMovesToNextCandidate: a ballot round that times out is
// retried on the next address. Retrying the same one cannot succeed — every
// voter that granted the timed-out round answers the new ballot Busy for
// 2*QuorumTimeout — so the allocation used to burn all MaxProposals rounds
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
