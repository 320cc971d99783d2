package daemon

// Reclamation defenses: a REC_REP is proof that its address is in use.

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// bareIO is the seam of a bare daemon: a clock that moves only when a test
// moves it, the functions the daemon scheduled, which a test runs by hand,
// and what it sent, oldest first.
type bareIO struct {
	now   time.Duration
	timed []func()
	sent  []*wire.Envelope
}

// take returns the messages of type typ sent so far, and forgets everything
// sent.
func (rec *bareIO) take(typ string) []*wire.Envelope {
	var out []*wire.Envelope
	for _, env := range rec.sent {
		if env.Type == typ {
			out = append(out, env)
		}
	}
	rec.sent = nil
	return out
}

// newBareDaemon is a daemon of ID id, built by New but not started: no event
// loop and no socket, so a test calls its handlers directly and reads what
// they send from the returned bareIO.
func newBareDaemon(t testing.TB, id radio.NodeID) (*Daemon, *bareIO) {
	t.Helper()
	d, err := New(Config{ID: id, Space: testSpace, Seeds: []radio.NodeID{1}, Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &bareIO{now: time.Second}
	d.clock = func() time.Duration { return rec.now }
	d.sched = func(_ time.Duration, fn func()) func() bool {
		rec.timed = append(rec.timed, fn)
		return func() bool { return false }
	}
	d.out = func(env *wire.Envelope) error {
		env.Src = id
		rec.sent = append(rec.sent, env)
		return nil
	}
	return d, rec
}

// TestDefenseRestoresALostCommit: an owner promoted by failover whose table
// shows an address free — the old owner replied to the requestor and died
// before the write reached it — learns from the holder's REC_REP that the
// address is in use. It occupies the address one version up, attributes it
// to the defender, and writes it to the defender.
func TestDefenseRestoresALostCommit(t *testing.T) {
	d, rec := newBareDaemon(t, 1)
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
	want3 := []string{msg.TQuorumUpd, msg.TUpdateLoc}
	if len(rec.sent) != len(want3) {
		t.Fatalf("the owner sent %d messages, want %v to the defender", len(rec.sent), want3)
	}
	for i, env := range rec.sent {
		if env.Type != want3[i] || env.Dst != 3 {
			t.Errorf("message %d is %s to %d, want %s to the defender 3", i, env.Type, env.Dst, want3[i])
		}
	}
	if upd := rec.sent[0].Payload.(msg.QuorumUpd); upd.Addr != a || upd.Entry != want {
		t.Errorf("defender got QUORUM_UPD %+v, want %v at %+v", upd, a, want)
	}
	if loc := rec.sent[1].Payload.(msg.UpdateLoc); loc.Addr != a || loc.Configurer != 3 {
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
	d, rec := newBareDaemon(t, 3)
	d.ownerID = 1
	d.roster = []*member{{id: 1}, {id: 2}, {id: 3}}
	d.holders[testSpace.Lo+5] = 3

	d.departing = true
	d.onAddrRec(1, msg.AddrRec{Target: 2}, 7)
	for _, env := range rec.sent {
		t.Errorf("a departing member sent %s %+v", env.Type, env.Payload)
	}
	if !d.member(2).dead {
		t.Error("the departing member did not align with the death verdict")
	}
}

// TestTablelessOwnerNeitherReclaimsNorSyncs: under a bounded replica set only
// the holders carry the table, so when the owner and its successor die
// before a new holder is recruited, the lowest-ID survivor promotes itself
// without one. It has no table to free addresses in or to replicate: it
// starts no reclamation, and its health check and replica broadcast carry
// no table.
func TestTablelessOwnerNeitherReclaimsNorSyncs(t *testing.T) {
	d, rec := newBareDaemon(t, 3)
	d.cfg.ReplicationTarget = 2
	d.ownerID, d.joined, d.hasIP, d.selfIP, d.haveMembership = 1, true, true, testSpace.Lo+3, true
	d.roster = []*member{{id: 1}, {id: 2}, {id: 3}, {id: 4}, {id: 5}}
	d.holders[testSpace.Lo+1] = 2
	d.declareDead(d.member(1))
	d.declareDead(d.member(2))
	if !d.isOwner() || d.table != nil {
		t.Fatalf("owner %d, table %v: want a tableless owner 3", d.ownerID, d.table)
	}
	if recs := rec.take(msg.TAddrRec); len(recs) > 0 || len(rec.timed) > 0 {
		t.Errorf("a tableless owner sent %d ADDR_REC and scheduled %d timers", len(recs), len(rec.timed))
	}
	for _, fn := range rec.timed {
		fn()
	}
	d.healthTick()
	d.broadcastReplica()
	for _, env := range rec.take(msg.TReplicaDist) {
		if env.Payload.(msg.ReplicaDist).Info.Pool != nil {
			t.Errorf("a tableless owner sent %d a replica", env.Dst)
		}
	}
}

// TestMemberFollowsTheOwnersReclaimer: a member told by ADDR_REC that the
// owner is dead takes the reclaiming member for the owner, so that when the
// reclaimer dies too the member promotes the next survivor instead of
// waiting on an owner it already counts dead. An ADDR_REC from outside the
// electorate names no owner.
func TestMemberFollowsTheOwnersReclaimer(t *testing.T) {
	d, _ := newBareDaemon(t, 3)
	d.ownerID = 1
	d.roster = []*member{{id: 1}, {id: 2}, {id: 3}, {id: 4}}
	d.onAddrRec(9, msg.AddrRec{Target: 1}, 0)
	if d.ownerID != 1 {
		t.Fatalf("an outsider's ADDR_REC made %d the owner", d.ownerID)
	}
	d.onAddrRec(2, msg.AddrRec{Target: 1}, 0)
	if d.ownerID != 2 {
		t.Fatalf("owner %d after 2 reclaimed the owner, want 2", d.ownerID)
	}
	d.declareDead(d.member(2))
	if !d.isOwner() {
		t.Errorf("owner %d after the reclaimer died, want 3", d.ownerID)
	}
}
