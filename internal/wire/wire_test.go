package wire

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/radio"
)

// sampleTable builds a small table with both occupied and freed-with-version
// entries — the two kinds of explicit replicated state.
func sampleTable(t *testing.T) *addrspace.Table {
	t.Helper()
	tab, err := addrspace.NewTable(addrspace.Block{Lo: 10, Hi: 25})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Mark(11, addrspace.Occupied); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Mark(12, addrspace.Occupied); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Mark(12, addrspace.Free); err != nil { // freed, version 2
		t.Fatal(err)
	}
	return tab
}

func samplePool(t *testing.T) *addrspace.Pool {
	t.Helper()
	tab2, err := addrspace.NewTable(addrspace.Block{Lo: 100, Hi: 131})
	if err != nil {
		t.Fatal(err)
	}
	return addrspace.NewPool(sampleTable(t), tab2)
}

// sampleEnvelopes returns one non-trivial envelope per message type.
func sampleEnvelopes(t *testing.T) []*Envelope {
	t.Helper()
	tag := msg.NetTag{Addr: 10, Nonce: 0xdeadbeef}
	info := msg.HolderInfo{Owner: 3, OwnerIP: 11, Pool: samplePool(t), Holders: []radio.NodeID{3, 5, 9}}
	grant := msg.ComCfg{Addr: 14, NetworkID: tag, Configurer: 3, PathHops: 4}
	payloads := map[string]any{
		msg.TFirstBcast:  msg.FirstBcast{Tries: 2},
		msg.TFirstResp:   msg.FirstResp{IP: 10, NetworkID: tag, IsHead: true},
		msg.TComReq:      msg.ComReq{PathHops: 3},
		msg.TComCfg:      grant,
		msg.TComAck:      msg.ComAck{Addr: 14, PathHops: 5},
		msg.TNack:        msg.CfgNack{PathHops: 1},
		msg.TChReq:       msg.ChReq{PathHops: 2},
		msg.TChPrp:       msg.ChPrp{Block: addrspace.Block{Lo: 16, Hi: 25}, PathHops: 2},
		msg.TChCnf:       msg.ChCnf{Block: addrspace.Block{Lo: 16, Hi: 25}, PathHops: 3},
		msg.TChCfg:       msg.ChCfg{Table: sampleTable(t), NetworkID: tag, Configurer: 3, PathHops: 4},
		msg.TChAck:       msg.ChAck{PathHops: 5},
		msg.TQuorumClt:   msg.QuorumClt{BallotID: 77, Owner: 3, Addr: 14, Split: true, Allocator: 9},
		msg.TQuorumCfm:   msg.QuorumCfm{BallotID: 77, Entry: addrspace.Entry{Status: addrspace.Occupied, Version: 6}, HasReplica: true, Busy: true},
		msg.TQuorumUpd:   msg.QuorumUpd{Owner: 3, Addr: 14, Entry: addrspace.Entry{Status: addrspace.Free, Version: 7}},
		msg.TSplitUpd:    msg.SplitUpd{Owner: 3, NewPool: samplePool(t), NewHead: 12},
		msg.TReplicaDist: msg.ReplicaDist{Info: info},
		msg.TReplicaAck:  msg.ReplicaAck{Info: info},
		msg.TAgentFwd:    msg.AgentFwd{Requestor: 21, PathHops: 2},
		msg.TAgentCfg:    msg.AgentCfg{Requestor: 21, Grant: grant},
		msg.TUpdateLoc:   msg.UpdateLoc{Configurer: 3, ConfigurerIP: 11, Addr: 14},
		msg.TReturnAddr:  msg.ReturnAddr{Configurer: 3, ConfigurerIP: 11, Addr: 14},
		msg.TDepartAck:   msg.DepartAck{},
		msg.TReturnFwd:   msg.ReturnFwd{Owner: 3, Addr: 14},
		msg.TVacate:      msg.Vacate{Owner: 3, Addr: 14, TTL: 3},
		msg.TChReturn: msg.ChReturn{Pool: samplePool(t), Members: []msg.MemberRecord{
			{Node: 7, Addr: 15}, {Node: 8, Addr: 17},
		}},
		msg.TChReturnAck: msg.ChReturnAck{},
		msg.TChResign:    msg.ChResign{},
		msg.TReassign:    msg.Reassign{NewAllocator: 5, NewAllocatorIP: 20},
		msg.TPoolUpd:     msg.PoolUpd{Owner: 3, Pool: samplePool(t)},
		msg.TRepReq:      msg.RepReq{},
		msg.TRepRsp:      msg.RepRsp{},
		msg.TAddrRec:     msg.AddrRec{Target: 6, TargetIP: 18},
		msg.TRecRep:      msg.RecRep{Target: 6, Addr: 18},
		msg.TRecFwd:      msg.RecFwd{Target: 6, Addr: 18, TTL: 2},
		msg.TReconfig:    msg.Reconfig{},
	}
	var out []*Envelope
	for i, typ := range msg.Types() {
		p, ok := payloads[typ]
		if !ok {
			t.Fatalf("no sample payload for %s", typ)
		}
		out = append(out, &Envelope{
			MsgID:    uint64(1000 + i),
			Type:     typ,
			Src:      radio.NodeID(i),
			Dst:      radio.NodeID(100 + i),
			Category: metrics.CatConfig,
			Hops:     i % 5,
			Payload:  p,
		})
	}
	return out
}

func TestRoundTripEveryType(t *testing.T) {
	for _, env := range sampleEnvelopes(t) {
		b, err := Encode(env)
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Type, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Type, err)
		}
		if !reflect.DeepEqual(env, got) {
			t.Errorf("%s: round trip mismatch\n in: %+v\nout: %+v", env.Type, env, got)
		}
		// Canonical: re-encoding the decoded envelope is byte-identical.
		b2, err := Encode(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", env.Type, err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Errorf("%s: encoding not canonical", env.Type)
		}
	}
}

func TestDecodeTruncation(t *testing.T) {
	for _, env := range sampleEnvelopes(t) {
		b, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(b); cut++ {
			if _, err := Decode(b[:cut]); err == nil {
				t.Errorf("%s: decode of %d/%d byte prefix succeeded", env.Type, cut, len(b))
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	good, err := Encode(&Envelope{Type: msg.TRepReq, Src: 1, Dst: 2, Category: metrics.CatSync, Payload: msg.RepReq{}})
	if err != nil {
		t.Fatal(err)
	}

	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
		t.Errorf("bad magic: got %v", err)
	}

	bad = append([]byte{}, good...)
	bad[2] = 99
	if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: got %v", err)
	}

	bad = append([]byte{}, good...)
	bad[3] = 0xfe
	if _, err := Decode(bad); !errors.Is(err, ErrUnknownType) {
		t.Errorf("bad type code: got %v", err)
	}

	if _, err := Decode(append(append([]byte{}, good...), 0x00)); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing byte: got %v", err)
	}

	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty frame: got %v", err)
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, err := Encode(&Envelope{Type: "NOPE", Payload: msg.RepReq{}}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: got %v", err)
	}
	if _, err := Encode(&Envelope{Type: msg.TComReq, Payload: msg.RepReq{}}); !errors.Is(err, ErrPayload) {
		t.Errorf("payload mismatch: got %v", err)
	}
	if _, err := Encode(&Envelope{Type: msg.TComReq, Hops: -1, Payload: msg.ComReq{}}); !errors.Is(err, ErrInvalid) {
		t.Errorf("negative hops: got %v", err)
	}

	// A nil table inside a pool is invalid going out ...
	holed := samplePool(t)
	holed.Tables()[0] = nil
	if _, err := Encode(&Envelope{Type: msg.TPoolUpd, Payload: msg.PoolUpd{Owner: 3, Pool: holed}}); !errors.Is(err, ErrInvalid) {
		t.Errorf("nil table inside pool, encode: got %v", err)
	}
	// ... and coming in: a pool-less REPLICA_DIST ends [pool absent, 3 holders];
	// splice in [pool present, 1 table, table absent].
	b, err := Encode(&Envelope{Type: msg.TReplicaDist, Payload: msg.ReplicaDist{
		Info: msg.HolderInfo{Owner: 3, OwnerIP: 11, Holders: []radio.NodeID{3, 5, 9}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	at := len(b) - 5
	b = append(b[:at:at], append([]byte{1, 1, 0}, b[at+1:]...)...)
	if _, err := Decode(b); !errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "nil table") {
		t.Errorf("nil table inside pool, decode: got %v", err)
	}
}

func TestTypeCodeStability(t *testing.T) {
	// The code assignment is part of the wire contract: inserting a type
	// in the middle of msg.Types() would silently renumber everything, so
	// pin a few anchors.
	anchors := map[string]byte{
		msg.TFirstBcast: 1,
		msg.TComReq:     3,
		msg.TQuorumClt:  12,
		msg.TReconfig:   35,
	}
	for typ, want := range anchors {
		got, ok := typeCodes[typ]
		if !ok || got != want {
			t.Errorf("type code of %s = %d, %v; want %d", typ, got, ok, want)
		}
	}
	if len(msg.Types()) != 35 {
		t.Errorf("type table has %d entries, want 35 — appending is fine, reordering is not", len(msg.Types()))
	}
}

// TestEncodeDoesNotWritePayload: senders keep using the slices, tables and
// pools of a payload they hand to Encode, so encoding must only read them.
// The coder's primitives take pointers in both directions; under -race two
// concurrent encodes of the same envelopes catch one that stores on the way
// out.
func TestEncodeDoesNotWritePayload(t *testing.T) {
	envs := sampleEnvelopes(t)
	done := make(chan struct{})
	for g := 0; g < 2; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for _, env := range envs {
				if _, err := Encode(env); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	<-done
	<-done
}
