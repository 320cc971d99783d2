package daemon

// Vote exclusion tests: a vote goes to one ballot — one (allocator, ballot
// ID) pair — at a time, the allocator's own vote for its open ballot
// included, so two daemons that both act as owner cannot both commit one
// address.

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
	"quorumconf/internal/transport/udptransport"
	"quorumconf/internal/wire"
)

// rival is a bare transport under an ID of its own that asks a daemon for
// votes the way a competing allocator does, or sends it anything else.
type rival struct {
	tr *udptransport.Transport
	d  *Daemon
	rx chan *wire.Envelope // what d sends back
}

func newRival(t *testing.T, d *Daemon, id radio.NodeID) *rival {
	t.Helper()
	tr, err := udptransport.New(udptransport.Config{ID: id, Listen: "127.0.0.1:0", RetryBase: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close(context.Background()) })
	// A few messages may arrive before the test reads the one it awaits;
	// past that, drop rather than stall the transport's read loop.
	r := &rival{tr: tr, d: d, rx: make(chan *wire.Envelope, 8)}
	tr.SetHandler(func(env *wire.Envelope) {
		select {
		case r.rx <- env:
		default:
		}
	})
	if err := tr.AddPeer(d.ID(), d.UDPAddr().String()); err != nil {
		t.Fatal(err)
	}
	if err := d.AddPeer(id, tr.LocalAddr().String()); err != nil {
		t.Fatal(err)
	}
	return r
}

// send delivers payload to d as a message of type typ.
func (r *rival) send(t *testing.T, typ string, payload any) {
	t.Helper()
	if err := r.tr.SendWait(context.Background(), &wire.Envelope{Type: typ, Dst: r.d.ID(), Payload: payload}); err != nil {
		t.Fatal(err)
	}
}

// await returns the next message of type typ from d, passing over others.
func (r *rival) await(t *testing.T, typ string) *wire.Envelope {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case env := <-r.rx:
			if env.Type == typ {
				return env
			}
		case <-deadline:
			t.Fatalf("no %s from daemon %d", typ, r.d.ID())
			return nil
		}
	}
}

// busy asks d to vote on a for the rival's ballot and reports whether d
// answered Busy.
func (r *rival) busy(t *testing.T, ballot uint64, a addrspace.Addr) bool {
	t.Helper()
	r.send(t, msg.TQuorumClt, msg.QuorumClt{BallotID: ballot, Owner: r.d.ID(), Addr: a, Allocator: r.tr.LocalID()})
	cfm := r.await(t, msg.TQuorumCfm).Payload.(msg.QuorumCfm)
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
	ds := newCluster(t, 2, func(c *Config) {
		c.SuspectAfter = time.Minute // the silent voter stays in the electorate
		c.QuorumTimeout = 5 * time.Second
		c.HealthInterval = -1
	})
	waitFormed(t, ds)
	owner := ds[0]
	ds[1].Kill() // the owner's ballots now wait for a vote that never comes

	var own uint64
	var x addrspace.Addr
	onLoopSync(t, owner, func() {
		owner.startBallot(owner.ID(), 0, func(addrspace.Addr, bool) {})
		for _, b := range owner.ballots {
			own, x = b.id, b.addr
		}
	})
	if own == 0 {
		t.Fatal("no ballot open at the owner")
	}
	r := newRival(t, owner, 9)
	for _, id := range []uint64{own, own + 100} {
		if !r.busy(t, id, x) {
			t.Errorf("owner granted rival ballot %d on %v while its own ballot %d on it is open", id, x, own)
		}
	}
	if r.busy(t, 1, x+1) {
		t.Errorf("owner answered Busy for %v, which no ballot holds", x+1)
	}
}

// TestGrantKeyedByAllocator: ballot IDs are per daemon, so a voter that
// granted allocator A's ballot 7 on X answers allocator B's ballot 7 on X
// Busy, and keeps granting A's.
func TestGrantKeyedByAllocator(t *testing.T) {
	d := newSoloOwner(t)
	a, b := newRival(t, d, 7), newRival(t, d, 8)
	x := testSpace.Lo + 5
	if a.busy(t, 7, x) {
		t.Fatal("a free voter answered Busy")
	}
	if !b.busy(t, 7, x) {
		t.Error("voter granted B's ballot 7 while A's ballot 7 holds its vote")
	}
	if a.busy(t, 7, x) {
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
// holds any table. A CH_REQ must then not panic the daemon: it answers the
// RepReq sent after it, in order.
func TestForgedSelfGrantMakesNoTablelessOwner(t *testing.T) {
	cfg := Config{ID: 2, Space: testSpace, Seeds: []radio.NodeID{9}, Listen: "127.0.0.1:0", Logf: t.Logf}
	fastTimings(&cfg)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	r := newRival(t, d, 9)
	r.send(t, msg.TComCfg, msg.ComCfg{Addr: testSpace.Lo + 1, Configurer: d.ID()})
	r.send(t, msg.TChReq, msg.ChReq{})
	r.send(t, msg.TRepReq, msg.RepReq{})
	r.await(t, msg.TRepRsp)
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
