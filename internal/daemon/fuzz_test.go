package daemon

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
	"quorumconf/internal/wire"
)

// fuzzSources are the senders a FuzzHandle frame picks from: the engine
// itself, the members of its roster and two strangers.
var fuzzSources = []radio.NodeID{1, 2, 3, 4, 9, 1000}

// FuzzHandle feeds a bare engine — an owner, or a member of the same roster
// — decoded envelopes from roster members and strangers, firing what it
// schedules as it goes. Input is a run of frames: one byte choosing the
// sender, one byte of length, then that many bytes for wire.Decode. The
// engine must never panic, and its holder attribution never outgrows the
// space.
func FuzzHandle(f *testing.F) {
	lo := testSpace.Lo
	tab, err := addrspace.NewTable(testSpace)
	if err != nil {
		f.Fatal(err)
	}
	_, _ = tab.Mark(lo+2, addrspace.Occupied)
	e := addrspace.Entry{Status: addrspace.Occupied, Version: 3}
	var all []byte
	for i, m := range []struct {
		typ string
		p   any
	}{
		{msg.TChReq, msg.ChReq{}},
		{msg.TAgentFwd, msg.AgentFwd{Requestor: 7}},
		{msg.TAgentCfg, msg.AgentCfg{Requestor: 1, Grant: msg.ComCfg{Addr: lo + 3, Configurer: 2}}},
		{msg.TComReq, msg.ComReq{}},
		{msg.TComCfg, msg.ComCfg{Addr: lo + 4, Configurer: 2}},
		{msg.TNack, msg.CfgNack{}},
		{msg.TReplicaDist, msg.ReplicaDist{Info: msg.HolderInfo{Owner: 2, OwnerIP: lo + 1, Holders: []radio.NodeID{1, 2, 3}, Pool: addrspace.NewPool(tab)}}},
		{msg.TReplicaAck, msg.ReplicaAck{}},
		{msg.TReturnAddr, msg.ReturnAddr{Configurer: 2, ConfigurerIP: lo + 1, Addr: lo + 2}},
		{msg.TDepartAck, msg.DepartAck{}},
		{msg.TQuorumClt, msg.QuorumClt{BallotID: 1, Owner: 2, Addr: lo + 5, Allocator: 2}},
		{msg.TQuorumCfm, msg.QuorumCfm{BallotID: 1, Entry: e, HasReplica: true}},
		{msg.TQuorumUpd, msg.QuorumUpd{Owner: 2, Addr: lo + 6, Entry: e}},
		{msg.TUpdateLoc, msg.UpdateLoc{Configurer: 3, ConfigurerIP: lo + 3, Addr: lo + 7}},
		{msg.TRepReq, msg.RepReq{}},
		{msg.TRepRsp, msg.RepRsp{}},
		{msg.TAddrRec, msg.AddrRec{Target: 3, TargetIP: lo + 3}},
		{msg.TRecRep, msg.RecRep{Target: 3, Addr: lo + 8}},
	} {
		b, err := wire.Encode(&wire.Envelope{Type: m.typ, Span: uint64(i), Payload: m.p})
		if err != nil {
			f.Fatal(err)
		}
		frame := append([]byte{byte(i), byte(len(b))}, b...)
		f.Add(frame)
		all = append(all, frame...)
	}
	f.Add(all)

	f.Fuzz(func(t *testing.T, data []byte) {
		d, rec := newBareDaemon(t, 1)
		d.bootstrap()
		if len(data) > 0 && data[0]%2 == 1 { // a member of owner 2
			d.ownerID = 2
		}
		for _, id := range fuzzSources[1:4] {
			d.admit(id)
		}
		for len(data) >= 2 {
			src, n := fuzzSources[int(data[0])%len(fuzzSources)], min(int(data[1]), len(data)-2)
			env, err := wire.Decode(data[2 : 2+n])
			data = data[2+n:]
			if err != nil {
				continue
			}
			env.Src, env.Dst = src, d.cfg.ID
			d.handle(env)
			rec.now += 50 * time.Millisecond
			timed := rec.timed
			rec.timed, rec.sent = nil, nil
			for _, fn := range timed {
				fn()
			}
			if len(d.holders) > int(testSpace.Size()) {
				t.Fatalf("%d holder entries in a space of %d", len(d.holders), testSpace.Size())
			}
		}
	})
}
