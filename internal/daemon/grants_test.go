package daemon

// Vote exclusion tests: a vote goes to one ballot — one (allocator, ballot
// ID) pair — at a time, the allocator's own vote for its open ballot
// included, so two daemons that both act as owner cannot both commit one
// address.

import (
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// newBareOwner is a bare daemon that owns testSpace with itself and the
// members others in the electorate, the way bootstrap leaves an owner.
func newBareOwner(t *testing.T, others ...radio.NodeID) (*Daemon, *bareIO) {
	t.Helper()
	d, rec := newBareDaemon(t, 1)
	d.bootstrap()
	for _, id := range others {
		d.admit(id)
	}
	return d, rec
}

// busy asks d to vote on a for allocator's ballot and reports whether d
// answered Busy.
func busy(t *testing.T, d *Daemon, rec *bareIO, allocator radio.NodeID, ballot uint64, a addrspace.Addr) bool {
	t.Helper()
	d.onQuorumClt(allocator, msg.QuorumClt{BallotID: ballot, Owner: allocator, Addr: a, Allocator: allocator}, 0)
	sent := rec.take(msg.TQuorumCfm)
	if len(sent) != 1 || sent[0].Dst != allocator {
		t.Fatalf("%d answers to allocator %d's ballot %d on %v", len(sent), allocator, ballot, a)
	}
	cfm := sent[0].Payload.(msg.QuorumCfm)
	if cfm.BallotID != ballot || !cfm.HasReplica {
		t.Fatalf("answer %+v to ballot %d on %v", cfm, ballot, a)
	}
	return cfm.Busy
}

// TestOwnBallotHoldsOwnVote: an owner whose ballot on X is open has given
// its own vote to that ballot, so it answers a rival allocator's QUORUM_CLT
// for X Busy — whatever ID the rival's ballot carries — and grants an
// address it has no ballot on.
func TestOwnBallotHoldsOwnVote(t *testing.T) {
	owner, rec := newBareOwner(t, 2) // 2 never answers: the ballot stays open
	owner.startBallot(owner.ID(), 0, func(addrspace.Addr, bool) {})
	var own uint64
	var x addrspace.Addr
	for _, b := range owner.ballots {
		own, x = b.id, b.addr
	}
	if own == 0 {
		t.Fatal("no ballot open at the owner")
	}
	for _, id := range []uint64{own, own + 100} {
		if !busy(t, owner, rec, 9, id, x) {
			t.Errorf("owner granted rival ballot %d on %v while its own ballot %d on it is open", id, x, own)
		}
	}
	if busy(t, owner, rec, 9, 1, x+1) {
		t.Errorf("owner answered Busy for %v, which no ballot holds", x+1)
	}
}

// TestGrantKeyedByAllocator: ballot IDs are per daemon, so a voter that
// granted allocator A's ballot 7 on X answers allocator B's ballot 7 on X
// Busy, and keeps granting A's.
func TestGrantKeyedByAllocator(t *testing.T) {
	d, rec := newBareOwner(t)
	const a, b = 7, 8
	x := testSpace.Lo + 5
	if busy(t, d, rec, a, 7, x) {
		t.Fatal("a free voter answered Busy")
	}
	if !busy(t, d, rec, b, 7, x) {
		t.Error("voter granted B's ballot 7 while A's ballot 7 holds its vote")
	}
	if busy(t, d, rec, a, 7, x) {
		t.Error("voter refused A's ballot 7 the vote it holds")
	}
}

// TestTwoOwnersNeverGrantOneAddress: daemon 2 wrongly declares the live
// owner dead and promotes itself, and a long ReclaimSettle keeps that
// verdict in place. Two owners then allocate concurrently from the same
// space. Every decision rests on a majority whose votes are exclusive, the
// allocator's own included, so no address may be granted twice; an
// allocation may fail.
func TestTwoOwnersNeverGrantOneAddress(t *testing.T) {
	ds := newCluster(t, 3, func(c *Config) {
		c.SuspectAfter = time.Minute
		c.ReclaimSettle = time.Minute
		c.HealthInterval = -1
	})
	waitFormed(t, ds)
	onLoopSync(t, ds[1], func() { ds[1].declareDead(ds[1].member(1)) })
	for _, d := range ds[:2] {
		if v := getStatus(t, d); v.Role != "owner" {
			t.Fatalf("daemon %d role %q, want owner", d.ID(), v.Role)
		}
	}

	// Two requests at each owner per round: 56 allocations in all, within
	// the 61 free addresses of testSpace.
	const rounds, perRound = 14, 4
	granted := make(map[string]radio.NodeID)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		got := make([]AllocateResponse, perRound)
		codes := make([]int, perRound)
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], codes[i] = postAllocate(ds[i%2])
			}()
		}
		wg.Wait()
		for i := range got {
			d := ds[i%2]
			if codes[i] != http.StatusOK {
				t.Logf("round %d: allocate at owner %d: HTTP %d", round, d.ID(), codes[i])
				continue
			}
			if prev, dup := granted[got[i].Addr]; dup {
				t.Errorf("round %d: %s granted by owner %d and by owner %d", round, got[i].Addr, prev, d.ID())
			}
			granted[got[i].Addr] = d.ID()
		}
	}
	t.Logf("%d of %d allocations granted", len(granted), rounds*perRound)
	if len(granted) == 0 {
		t.Error("no allocation succeeded")
	}
}

// TestForgedSelfGrantMakesNoTablelessOwner: a forged COM_CFG naming the
// joiner itself as configurer makes it take itself for the owner before it
// holds any table. A CH_REQ must then not panic the daemon, which answers
// the RepReq sent after it.
func TestForgedSelfGrantMakesNoTablelessOwner(t *testing.T) {
	d, rec := newBareDaemon(t, 2)
	for _, env := range []*wire.Envelope{
		{Type: msg.TComCfg, Payload: msg.ComCfg{Addr: testSpace.Lo + 1, Configurer: d.ID()}},
		{Type: msg.TChReq, Payload: msg.ChReq{}},
		{Type: msg.TRepReq, Payload: msg.RepReq{}},
	} {
		env.Src, env.Dst = 9, d.ID()
		d.handle(env)
	}
	if rsp := rec.take(msg.TRepRsp); len(rsp) != 1 || rsp[0].Dst != 9 {
		t.Errorf("%d REP_RSP to the sender, want 1", len(rsp))
	}
}

// postAllocate is allocate for any goroutine: a transport or decode error
// reads as status 0.
func postAllocate(d *Daemon) (AllocateResponse, int) {
	var v AllocateResponse
	resp, err := http.Post("http://"+d.HTTPAddr()+"/v1/allocate", "application/json", nil)
	if err != nil {
		return v, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&v) != nil {
		return v, 0
	}
	return v, resp.StatusCode
}
