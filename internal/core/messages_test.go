package core

import (
	"reflect"
	"testing"

	"quorumconf/internal/metrics"
	"quorumconf/internal/msg"
	"quorumconf/internal/wire"
)

// messageShapes pins the wire contract message by message: the type name,
// the payload struct, and the exact field set. The table
// is grouped by protocol category and its order matches msg.Types(), which
// is what the wire codec derives its type codes from — reordering or
// reshaping anything here is a wire-format break and must fail loudly.
var messageShapes = []struct {
	category string
	name     string
	zero     any
	fields   []string
}{
	// Network discovery (§IV-A).
	{"discovery", msg.TFirstBcast, msg.FirstBcast{}, []string{"Tries"}},
	{"discovery", msg.TFirstResp, msg.FirstResp{}, []string{"IP", "NetworkID", "IsHead"}},
	// Common-node configuration (§IV-B).
	{"configuration", msg.TComReq, msg.ComReq{}, []string{"PathHops"}},
	{"configuration", msg.TComCfg, msg.ComCfg{}, []string{"Addr", "NetworkID", "Configurer", "PathHops"}},
	{"configuration", msg.TComAck, msg.ComAck{}, []string{"Addr", "PathHops"}},
	{"configuration", msg.TNack, msg.CfgNack{}, []string{"PathHops"}},
	// Cluster-head configuration and block splitting (§IV-B).
	{"cluster-head", msg.TChReq, msg.ChReq{}, []string{"PathHops"}},
	{"cluster-head", msg.TChPrp, msg.ChPrp{}, []string{"Block", "PathHops"}},
	{"cluster-head", msg.TChCnf, msg.ChCnf{}, []string{"Block", "PathHops"}},
	{"cluster-head", msg.TChCfg, msg.ChCfg{}, []string{"Table", "NetworkID", "Configurer", "PathHops"}},
	{"cluster-head", msg.TChAck, msg.ChAck{}, []string{"PathHops"}},
	// Quorum ballots (§IV-C).
	{"quorum", msg.TQuorumClt, msg.QuorumClt{}, []string{"BallotID", "Owner", "Addr", "Split", "Allocator"}},
	{"quorum", msg.TQuorumCfm, msg.QuorumCfm{}, []string{"BallotID", "Entry", "HasReplica", "Busy"}},
	{"quorum", msg.TQuorumUpd, msg.QuorumUpd{}, []string{"Owner", "Addr", "Entry"}},
	{"quorum", msg.TSplitUpd, msg.SplitUpd{}, []string{"Owner", "NewPool", "NewHead"}},
	// Replica distribution (§IV-C).
	{"replication", msg.TReplicaDist, msg.ReplicaDist{}, []string{"Info"}},
	{"replication", msg.TReplicaAck, msg.ReplicaAck{}, []string{"Info"}},
	// Agent relay (§IV-B).
	{"agent", msg.TAgentFwd, msg.AgentFwd{}, []string{"Requestor", "PathHops"}},
	{"agent", msg.TAgentCfg, msg.AgentCfg{}, []string{"Requestor", "Grant"}},
	// Movement (§IV-D).
	{"movement", msg.TUpdateLoc, msg.UpdateLoc{}, []string{"Configurer", "ConfigurerIP", "Addr"}},
	// Graceful departure (§IV-D).
	{"departure", msg.TReturnAddr, msg.ReturnAddr{}, []string{"Configurer", "ConfigurerIP", "Addr"}},
	{"departure", msg.TDepartAck, msg.DepartAck{}, nil},
	{"departure", msg.TReturnFwd, msg.ReturnFwd{}, []string{"Owner", "Addr"}},
	{"departure", msg.TVacate, msg.Vacate{}, []string{"Owner", "Addr", "TTL"}},
	{"departure", msg.TChReturn, msg.ChReturn{}, []string{"Pool", "Members"}},
	{"departure", msg.TChReturnAck, msg.ChReturnAck{}, nil},
	{"departure", msg.TChResign, msg.ChResign{}, nil},
	{"departure", msg.TReassign, msg.Reassign{}, []string{"NewAllocator", "NewAllocatorIP"}},
	{"departure", msg.TPoolUpd, msg.PoolUpd{}, []string{"Owner", "Pool"}},
	// Existence synchronization (§IV-D).
	{"sync", msg.TRepReq, msg.RepReq{}, nil},
	{"sync", msg.TRepRsp, msg.RepRsp{}, nil},
	// Address reclamation (§IV-D).
	{"reclamation", msg.TAddrRec, msg.AddrRec{}, []string{"Target", "TargetIP"}},
	{"reclamation", msg.TRecRep, msg.RecRep{}, []string{"Target", "Addr"}},
	{"reclamation", msg.TRecFwd, msg.RecFwd{}, []string{"Target", "Addr", "TTL"}},
	// Partition handling (§V).
	{"partition", msg.TReconfig, msg.Reconfig{}, nil},
}

// TestMessageTableIsComplete: one shape per wire type, in wire-code order.
func TestMessageTableIsComplete(t *testing.T) {
	types := msg.Types()
	if len(messageShapes) != len(types) {
		t.Fatalf("shape table has %d entries, wire vocabulary has %d", len(messageShapes), len(types))
	}
	seen := make(map[string]bool)
	for i, s := range messageShapes {
		if s.name != types[i] {
			t.Errorf("shape %d is %q, wire order says %q — type-code order broken", i, s.name, types[i])
		}
		if seen[s.name] {
			t.Errorf("duplicate shape for %q", s.name)
		}
		seen[s.name] = true
		code, ok := wire.TypeCode(s.name)
		if !ok {
			t.Errorf("%s has no wire type code", s.name)
		} else if int(code) != i+1 {
			t.Errorf("%s has wire code %d, want %d", s.name, code, i+1)
		}
	}
}

// TestMessageShapes pins the exact field set of every payload struct.
func TestMessageShapes(t *testing.T) {
	for _, s := range messageShapes {
		rt := reflect.TypeOf(s.zero)
		if rt.Kind() != reflect.Struct {
			t.Errorf("%s payload is %v, want a struct", s.name, rt.Kind())
			continue
		}
		var got []string
		for i := 0; i < rt.NumField(); i++ {
			got = append(got, rt.Field(i).Name)
		}
		if !reflect.DeepEqual(got, s.fields) {
			t.Errorf("%s (%s) fields = %v, want %v", s.name, s.category, got, s.fields)
		}
	}
}

// TestMessageZeroValuesRoundTrip: the zero value of every payload must
// survive the wire codec unchanged — zero-value semantics (nil tables,
// nil pools, empty member lists) are part of the contract.
func TestMessageZeroValuesRoundTrip(t *testing.T) {
	for i, s := range messageShapes {
		env := &wire.Envelope{
			MsgID:    uint64(i + 1),
			Type:     s.name,
			Src:      1,
			Dst:      2,
			Category: metrics.CatConfig,
			Hops:     1,
			Payload:  s.zero,
		}
		raw, err := wire.Encode(env)
		if err != nil {
			t.Errorf("%s: encode zero value: %v", s.name, err)
			continue
		}
		dec, err := wire.Decode(raw)
		if err != nil {
			t.Errorf("%s: decode zero value: %v", s.name, err)
			continue
		}
		if !reflect.DeepEqual(dec.Payload, s.zero) {
			t.Errorf("%s: zero value round-trip = %#v, want %#v", s.name, dec.Payload, s.zero)
		}
	}
}

// TestMessageEqualitySemantics pins which payloads support == (the protocol
// compares and dedups them by value) and which cannot because they carry
// reference state (tables, pools, member lists).
func TestMessageEqualitySemantics(t *testing.T) {
	// Pointer fields (tables, pools) still leave a struct comparable — ==
	// is pointer identity there, which is why the protocol compares those
	// by content instead. Only slice-bearing payloads lose == entirely.
	wantUncomparable := map[string]bool{
		msg.TReplicaDist: true, // HolderInfo carries []NodeID
		msg.TReplicaAck:  true,
		msg.TChReturn:    true, // []MemberRecord
	}
	for _, s := range messageShapes {
		comparable := reflect.TypeOf(s.zero).Comparable()
		if want := !wantUncomparable[s.name]; comparable != want {
			t.Errorf("%s comparable = %v, want %v", s.name, comparable, want)
		}
	}
	// MemberRecord rides inside CH_RETURN and must stay comparable so
	// member sets can be deduplicated by value.
	if !reflect.TypeOf(msg.MemberRecord{}).Comparable() {
		t.Error("MemberRecord must be comparable")
	}
	if !reflect.TypeOf(msg.HolderInfo{}.Owner).Comparable() {
		t.Error("HolderInfo.Owner must be comparable")
	}
}
