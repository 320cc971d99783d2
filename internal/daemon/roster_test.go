package daemon

import (
	"net"
	"net/http"
	"slices"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

// checkRoster reads, on each daemon's event loop, that the roster is
// strictly ascending by ID, contains the daemon itself once it has joined,
// and is what /v1/status reports as the electorate.
func checkRoster(t *testing.T, phase string, ds ...*Daemon) {
	t.Helper()
	for _, d := range ds {
		var ids []radio.NodeID
		var joined bool
		var view StatusResponse
		onLoopSync(t, d, func() { ids, joined, view = d.electorate(), d.joined, d.statusView() })
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Errorf("%s: daemon %d roster %v is not strictly ascending", phase, d.ID(), ids)
			}
		}
		if joined && !slices.Contains(ids, d.ID()) {
			t.Errorf("%s: joined daemon %d is missing from its roster %v", phase, d.ID(), ids)
		}
		want := make([]int, len(ids))
		for i, id := range ids {
			want[i] = int(id)
		}
		if !electorateIs(view, want...) {
			t.Errorf("%s: daemon %d reports electorate %v, roster is %v", phase, d.ID(), view.Electorate, ids)
		}
	}
}

// restart boots a fresh daemon under old's ID, seeds and UDP address — the
// same node coming back after a crash or a departure — wired to peers
// before it starts. old must have been killed.
func restart(t *testing.T, old *Daemon, peers ...*Daemon) *Daemon {
	t.Helper()
	cfg := old.cfg
	cfg.Listen = old.UDPAddr().String()
	cfg.Metrics, cfg.Histograms = nil, nil
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := d.AddPeer(p.ID(), p.UDPAddr().String()); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	return d
}

// TestPeersAddedBeforeStart: peers registered before Start are known to
// the transport by the time the joiner's first CH_REQ leaves, so the join
// takes one attempt and no send fails. (Registered after Start, they race
// that first CH_REQ: "unknown peer", and a whole JoinRetry lost.)
func TestPeersAddedBeforeStart(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = c.LocalAddr().String()
		c.Close()
	}
	ds := make([]*Daemon, 2)
	for i := range ds {
		cfg := Config{ID: radio.NodeID(i + 1), Space: testSpace, Bootstrap: i == 0, Listen: addrs[i], HTTPListen: "127.0.0.1:0", Logf: t.Logf}
		fastTimings(&cfg)
		cfg.JoinRetry = 20 * time.Second // a lost first attempt shows as a second one, not as a quick retry
		if i > 0 {
			cfg.Seeds = []radio.NodeID{1}
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.AddPeer(radio.NodeID(2-i), addrs[1-i]); err != nil {
			t.Fatal(err)
		}
		ds[i] = d
	}
	for _, d := range ds {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Kill)
	}
	waitFormed(t, ds)
	joiner := ds[1]
	if n := counter(joiner, "daemon.join_attempts"); n != 1 {
		t.Errorf("daemon.join_attempts = %d, want 1", n)
	}
	if n := counter(joiner, "daemon.send_err"); n != 0 {
		t.Errorf("daemon.send_err = %d, want 0", n)
	}
}

// waitElectorate waits until every daemon of ds has joined and reports
// exactly the electorate want.
func waitElectorate(t *testing.T, what string, ds []*Daemon, want ...int) {
	t.Helper()
	waitFor(t, 30*time.Second, what, func() bool {
		for _, d := range ds {
			v, err := tryStatus(d)
			if err != nil || !v.Joined || !electorateIs(v, want...) {
				return false
			}
		}
		return true
	})
}

// TestRejoinedMemberIsAliveEverywhere: a daemon that crashed, was reclaimed
// and configured again under its old ID is a new member at every daemon,
// not only at the owner that admitted it. A member that kept the old death
// verdict would, once promoted, count the rejoined daemon in its majority
// yet never ask it for a vote, and refuse every allocation from then on.
func TestRejoinedMemberIsAliveEverywhere(t *testing.T) {
	ds := newCluster(t, 3)
	waitFormed(t, ds)

	ds[2].Kill()
	waitElectorate(t, "reclamation of daemon 3", ds[:2], 1, 2)

	ds[2] = restart(t, ds[2], ds[0], ds[1])
	waitElectorate(t, "daemon 3 to rejoin", ds, 1, 2, 3)
	onLoopSync(t, ds[1], func() {
		if m := ds[1].member(3); m == nil || m.dead {
			t.Errorf("member 2 still marks rejoined daemon 3 dead")
		}
	})

	ds[0].Kill()
	waitFor(t, 30*time.Second, "daemon 2 to take over {2,3}", func() bool {
		v, err := tryStatus(ds[1])
		return err == nil && v.Role == "owner" && electorateIs(v, 2, 3)
	})
	if _, code := allocate(t, ds[1]); code != http.StatusOK {
		t.Errorf("allocate at promoted owner: HTTP %d", code)
	}
	checkRoster(t, "after failover", ds[1], ds[2])
}

// TestPromotedOwnerAsksAMemberItOnceThoughtDead: a member's own failure
// detector may declare a live peer dead (a stall, a burst of loss). The
// peer's next message overturns the verdict; it used to stand for good, so
// once that member was promoted owner it never asked the peer for a vote
// and could not reach a majority.
func TestPromotedOwnerAsksAMemberItOnceThoughtDead(t *testing.T) {
	ds := newCluster(t, 3)
	waitFormed(t, ds)

	onLoopSync(t, ds[1], func() { ds[1].declareDead(ds[1].member(3)) })
	waitFor(t, 10*time.Second, "daemon 2 to hear daemon 3 is alive", func() bool {
		var members MembersResponse
		if code := getJSON(t, "http://"+ds[1].HTTPAddr()+"/v1/members", &members); code != http.StatusOK {
			return false
		}
		i := slices.IndexFunc(members.Members, func(m MemberInfo) bool { return m.Node == 3 })
		return i >= 0 && !members.Members[i].Dead
	})
	if n := counter(ds[1], "daemon.peer_revived"); n < 1 {
		t.Errorf("daemon.peer_revived = %d at daemon 2, want at least 1", n)
	}

	ds[0].Kill()
	waitFor(t, 30*time.Second, "daemon 2 to take over", func() bool {
		v, err := tryStatus(ds[1])
		return err == nil && v.Role == "owner"
	})
	if _, code := allocate(t, ds[1]); code != http.StatusOK {
		t.Errorf("allocate at the promoted owner: HTTP %d", code)
	}
}

// TestReclaimSparesAMemberHeardDuringSettle: a death verdict on a live
// member opens its reclamation, but the member's heartbeats go on, so when
// the run settles it keeps its own address, its lease and its place. The
// owner used to free both and expel it without telling it, and could then
// grant them a second time.
func TestReclaimSparesAMemberHeardDuringSettle(t *testing.T) {
	ds := newCluster(t, 3)
	waitFormed(t, ds)
	owner, target := ds[0], ds[2]
	v, code := allocate(t, target)
	if code != http.StatusOK {
		t.Fatalf("allocate at %d: HTTP %d", target.ID(), code)
	}
	var held []addrspace.Addr
	onLoopSync(t, target, func() { held = []addrspace.Addr{target.selfIP, addrspace.Addr(v.Value)} })

	onLoopSync(t, owner, func() { owner.declareDead(owner.member(target.ID())) })
	waitFor(t, 10*time.Second, "the reclamation of daemon 3 to settle", func() bool {
		running := true
		onLoopSync(t, owner, func() { running = owner.reclaims.Running(target.ID()) })
		return !running
	})
	onLoopSync(t, owner, func() {
		if m := owner.member(target.ID()); m == nil || m.dead {
			t.Errorf("daemon 3, heard from throughout, is %v at the owner after its reclamation", m)
		}
		for _, a := range held {
			if h := owner.holders[a]; h != target.ID() {
				t.Errorf("daemon 3's lease %v attributed to %d after the reclamation, want 3", a, h)
			}
		}
	})
	if n := counter(owner, "daemon.reclaimed_addrs"); n != 0 {
		t.Errorf("daemon.reclaimed_addrs = %d, want 0", n)
	}
	if n := counter(owner, "daemon.reclaims_spared"); n != 1 {
		t.Errorf("daemon.reclaims_spared = %d, want 1", n)
	}
	w, code := allocate(t, owner)
	if code != http.StatusOK {
		t.Fatalf("allocate at the owner: HTTP %d", code)
	}
	if a := addrspace.Addr(w.Value); slices.Contains(held, a) {
		t.Errorf("%v granted again while daemon 3 holds it", a)
	}
}

// TestGracefulDepartThenRejoin: a member that departed on demand and is
// started again under the same ID joins as a new member: it votes, and the
// owner's view of it starts over — heard from, with a fresh replica lease.
func TestGracefulDepartThenRejoin(t *testing.T) {
	ds := newCluster(t, 3)
	waitFormed(t, ds)
	owner := ds[0]

	var dv DepartResponse
	if code := postJSON(t, "http://"+ds[2].HTTPAddr()+"/v1/depart", "", &dv); code != http.StatusOK || !dv.Departed {
		t.Fatalf("POST /v1/depart: HTTP %d, body %+v", code, dv)
	}
	waitElectorate(t, "departure of daemon 3", ds[:2], 1, 2)
	ds[2].Kill()

	ds[2] = restart(t, ds[2], ds[0], ds[1])
	waitElectorate(t, "daemon 3 to rejoin", ds, 1, 2, 3)

	// With daemon 2 gone the majority of {1,2,3} needs daemon 3's vote.
	ds[1].Kill()
	if _, code := allocate(t, owner); code != http.StatusOK {
		t.Errorf("allocate needing the rejoined daemon's vote: HTTP %d", code)
	}

	waitFor(t, 10*time.Second, "owner to hear from and sync the rejoined daemon", func() bool {
		var members MembersResponse
		if code := getJSON(t, "http://"+owner.HTTPAddr()+"/v1/members", &members); code != http.StatusOK {
			return false
		}
		for _, m := range members.Members {
			if m.Node == 3 {
				ttl := owner.cfg.ReplicaTTL.Milliseconds()
				return !m.Dead && m.LastSeenMS >= 0 && m.ReplicaHolder && m.ReplicaAgeMS >= 0 && m.ReplicaAgeMS < ttl
			}
		}
		return false
	})
}
