package daemon

// Reclamation defenses: a REC_REP is proof that its address is in use.

import (
	"context"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/quorum"
	"quorumconf/internal/radio"
	"quorumconf/internal/transport/udptransport"
)

// newBareDaemon is a daemon of ID id that is not started: no event loop,
// only a loopback transport, so a test calls its handlers directly and
// reads what they send through a rival.
func newBareDaemon(t *testing.T, id radio.NodeID) *Daemon {
	t.Helper()
	coll := metrics.NewSync()
	tr, err := udptransport.New(udptransport.Config{ID: id, Listen: "127.0.0.1:0", Metrics: coll})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close(context.Background()) })
	return &Daemon{
		cfg:      Config{ID: id, Space: testSpace, Logf: t.Logf},
		coll:     coll,
		tr:       tr,
		holders:  make(map[addrspace.Addr]radio.NodeID),
		reclaims: make(quorum.Reclaims),
	}
}

// TestDefenseRestoresALostCommit: an owner promoted by failover whose table
// shows an address free — the old owner replied to the requestor and died
// before the write reached it — learns from the holder's REC_REP that the
// address is in use. It occupies the address one version up, attributes it
// to the defender, and writes it to the defender.
func TestDefenseRestoresALostCommit(t *testing.T) {
	d := newBareDaemon(t, 1)
	d.ownerID = 1
	d.roster = []*member{{id: 1}, {id: 2, dead: true}, {id: 3}}
	table, err := addrspace.NewTable(testSpace)
	if err != nil {
		t.Fatal(err)
	}
	d.table = table
	a := testSpace.Lo + 5
	if err := d.table.Set(a, addrspace.Entry{Status: addrspace.Free, Version: 3}); err != nil {
		t.Fatal(err)
	}
	defender := newRival(t, d, 3)
	run := d.reclaims.Open(2, 7, 1)

	d.onRecRep(3, msg.RecRep{Target: 2, Addr: a})

	want := addrspace.Entry{Status: addrspace.Occupied, Version: 4}
	if e, _ := d.table.Get(a); e != want {
		t.Errorf("after the defense the table holds %+v for %v, want %+v", e, a, want)
	}
	if h := d.holders[a]; h != 3 {
		t.Errorf("%v attributed to %d, want the defender 3", a, h)
	}
	if toFree := run.Undefended([]addrspace.Addr{a}); len(toFree) != 0 {
		t.Errorf("the run would still free %v", toFree)
	}
	upd := defender.await(t, msg.TQuorumUpd).Payload.(msg.QuorumUpd)
	if upd.Addr != a || upd.Entry != want {
		t.Errorf("defender got QUORUM_UPD %+v, want %v at %+v", upd, a, want)
	}
	if loc := defender.await(t, msg.TUpdateLoc).Payload.(msg.UpdateLoc); loc.Addr != a || loc.Configurer != 3 {
		t.Errorf("defender got UPDATE_LOC %+v, want %v held by 3", loc, a)
	}

	// A defense of an address the table already shows occupied changes
	// neither its entry nor its version.
	d.reclaims.Open(3, 8, 2)
	d.onRecRep(1, msg.RecRep{Target: 3, Addr: a})
	if e, _ := d.table.Get(a); e != want {
		t.Errorf("a second defense rewrote %v to %+v", a, e)
	}
	// An owner without a table (a forged owner view) records the defense
	// and nothing else.
	d.table = nil
	d.reclaims.Open(4, 9, 3)
	d.onRecRep(3, msg.RecRep{Target: 4, Addr: a + 1})
}

// TestDepartingMemberDefendsNothing: a departing member is returning what it
// holds, so an ADDR_REC gets no REC_REP from it — a defense would make the
// owner occupy again an address it has just freed.
func TestDepartingMemberDefendsNothing(t *testing.T) {
	d := newBareDaemon(t, 3)
	d.ownerID = 1
	d.roster = []*member{{id: 1}, {id: 2}, {id: 3}}
	d.holders[testSpace.Lo+5] = 3
	owner := newRival(t, d, 1)

	d.departing = true
	d.onAddrRec(1, msg.AddrRec{Target: 2}, 7)
	// Messages to one peer arrive in the order they were sent: whatever the
	// owner gets before this REP_RSP was sent before it.
	d.sendTo(1, msg.TRepRsp, metrics.CatHello, msg.RepRsp{})
	select {
	case env := <-owner.rx:
		if env.Type != msg.TRepRsp {
			t.Errorf("a departing member sent %s %+v", env.Type, env.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the owner got nothing")
	}
	if !d.member(2).dead {
		t.Error("the departing member did not align with the death verdict")
	}
}
