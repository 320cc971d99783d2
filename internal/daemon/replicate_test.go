package daemon

// The owner's one replica-set rule, and the leases it keeps.

import (
	"slices"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// TestRefreshReplicaSet: the owner demotes every dead member, reports the
// dead holders, and refills to target with the lowest-ID live non-holders.
// A lease that merely expired is the monitor's to re-sync, not a death.
func TestRefreshReplicaSet(t *testing.T) {
	const t0 = time.Minute
	// peer is one roster entry besides self (ID 1); acked means it holds a
	// lease from t0.
	type peer struct {
		id                  radio.NodeID
		holder, dead, acked bool
	}
	cases := []struct {
		name               string
		target             int
		peers              []peer
		demoted, recruited []radio.NodeID
		holders, leased    []radio.NodeID
	}{
		{"at target nothing changes", 3,
			[]peer{{id: 2, holder: true, acked: true}, {id: 3, holder: true, acked: true}, {id: 4}, {id: 5}},
			nil, nil, []radio.NodeID{2, 3}, []radio.NodeID{2, 3}},
		{"dead holder demoted, lowest live non-holder recruited", 3,
			[]peer{{id: 2, holder: true, acked: true}, {id: 3, holder: true, dead: true}, {id: 4}, {id: 5}},
			[]radio.NodeID{3}, []radio.NodeID{4}, []radio.NodeID{2, 4}, []radio.NodeID{2}},
		{"dead non-holder changes nothing", 3,
			[]peer{{id: 2, holder: true, acked: true}, {id: 3, holder: true, acked: true}, {id: 4}, {id: 5, dead: true}},
			nil, nil, []radio.NodeID{2, 3}, []radio.NodeID{2, 3}},
		{"recruitment fills only to target", 4,
			[]peer{{id: 2, holder: true}, {id: 3}, {id: 4}, {id: 5}, {id: 6}, {id: 7}},
			nil, []radio.NodeID{3, 4}, []radio.NodeID{2, 3, 4}, nil},
		{"target above membership takes every live member", 5,
			[]peer{{id: 2, holder: true}, {id: 3}, {id: 4, dead: true}},
			nil, []radio.NodeID{3}, []radio.NodeID{2, 3}, nil},
		{"full replication designates every live member", 0,
			[]peer{{id: 2, holder: true}, {id: 3}, {id: 4}, {id: 5, dead: true}},
			nil, []radio.NodeID{3, 4}, []radio.NodeID{2, 3, 4}, nil},
		{"expired lease is not a death", 3,
			[]peer{{id: 2, holder: true}, {id: 3, holder: true, acked: true}, {id: 4}},
			nil, nil, []radio.NodeID{2, 3}, []radio.NodeID{3}},
		{"dead member's lease is cleared", 3,
			[]peer{{id: 2, holder: true, acked: true}, {id: 3, holder: true, dead: true, acked: true}, {id: 4}},
			[]radio.NodeID{3}, []radio.NodeID{4}, []radio.NodeID{2, 4}, []radio.NodeID{2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &Daemon{cfg: Config{ID: 1, ReplicationTarget: tc.target}, roster: []*member{{id: 1}}}
			for _, p := range tc.peers {
				m := &member{id: p.id, holder: p.holder, dead: p.dead}
				if p.acked {
					m.acked = t0
				}
				d.roster = append(d.roster, m)
			}
			demoted, recruited := d.refreshReplicaSet()
			var holders, leased []radio.NodeID
			for _, m := range d.roster {
				if m.holder {
					holders = append(holders, m.id)
				}
				if m.acked != 0 {
					leased = append(leased, m.id)
				}
			}
			for _, got := range []struct {
				what      string
				got, want []radio.NodeID
			}{
				{"demoted", demoted, tc.demoted},
				{"recruited", recruited, tc.recruited},
				{"holders", holders, tc.holders},
				{"leases", leased, tc.leased},
			} {
				if !slices.Equal(got.got, got.want) {
					t.Errorf("%s = %v, want %v", got.what, got.got, got.want)
				}
			}
		})
	}
}

// TestLateReplicaAckGrantsNoLease: a REPLICA_ACK from a member the owner
// has demoted since it sent the replica leaves no lease behind; a holder's
// ack records one.
func TestLateReplicaAckGrantsNoLease(t *testing.T) {
	d := &Daemon{
		cfg:     Config{ID: 1},
		clock:   func() time.Duration { return time.Second },
		ownerID: 1,
		coll:    metrics.NewSync(),
		roster:  []*member{{id: 1}, {id: 2}, {id: 3, holder: true}},
	}
	d.onReplicaAck(2)
	if m := d.member(2); m.acked != 0 {
		t.Errorf("a non-holder's ack set a lease at %v", m.acked)
	}
	d.onReplicaAck(3)
	if m := d.member(3); m.acked == 0 {
		t.Error("a holder's ack set no lease")
	}
}

// TestHolderSendsTheOwnerWhatItsReplicaLacks: an owner promoted by failover
// may lack a commit whose write to it was lost. A holder whose own copy of an
// address is newer than the owner's replica sends the entry back as a
// QUORUM_UPD, ahead of its REPLICA_ACK; entries the owner has are not sent.
func TestHolderSendsTheOwnerWhatItsReplicaLacks(t *testing.T) {
	d, rec := newBareDaemon(t, 3)
	d.roster = []*member{{id: 2}, {id: 3}}
	mine, err := addrspace.NewTable(testSpace)
	if err != nil {
		t.Fatal(err)
	}
	ahead, same := testSpace.Lo+5, testSpace.Lo+6
	newer := addrspace.Entry{Status: addrspace.Occupied, Version: 2}
	for _, a := range []addrspace.Addr{ahead, same} {
		if err := mine.Set(a, newer); err != nil {
			t.Fatal(err)
		}
	}
	d.table = mine
	owners, err := addrspace.NewTable(testSpace)
	if err != nil {
		t.Fatal(err)
	}
	_ = owners.Set(ahead, addrspace.Entry{Status: addrspace.Free, Version: 1})
	_ = owners.Set(same, newer)

	d.onReplicaDist(2, msg.ReplicaDist{Info: msg.HolderInfo{Owner: 2, Holders: []radio.NodeID{2, 3}, Pool: addrspace.NewPool(owners)}})
	var got []string
	for _, env := range rec.sent {
		got = append(got, env.Type)
		if env.Dst != 2 {
			t.Errorf("%s to %d, want the owner 2", env.Type, env.Dst)
		}
	}
	if want := []string{msg.TQuorumUpd, msg.TReplicaAck}; !slices.Equal(got, want) {
		t.Fatalf("holder sent %v, want %v", got, want)
	}
	if upd := rec.sent[0].Payload.(msg.QuorumUpd); upd.Addr != ahead || upd.Entry != newer {
		t.Errorf("QUORUM_UPD %+v, want %v at %+v", upd, ahead, newer)
	}
}
