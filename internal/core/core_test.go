package core

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/protocol"
	"quorumconf/internal/radio"
)

// harness drives one protocol instance over a static or scripted topology.
type harness struct {
	t  *testing.T
	rt *protocol.Runtime
	p  *Protocol
}

func newHarness(t *testing.T, params Params) *harness {
	t.Helper()
	return newHarnessRange(t, params, 150)
}

func newHarnessRange(t *testing.T, params Params, rng float64) *harness {
	t.Helper()
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: rng})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(rt, params)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{t: t, rt: rt, p: p}
}

// arriveAt places a static node and announces it at the given virtual time.
func (h *harness) arriveAt(at time.Duration, id radio.NodeID, x, y float64) {
	h.t.Helper()
	h.rt.Sim.ScheduleAt(at, func() {
		if err := h.rt.Topo.Add(id, mobility.Static(mobility.Point{X: x, Y: y})); err != nil {
			h.t.Errorf("add node %d: %v", id, err)
			return
		}
		h.rt.Net.InvalidateSnapshot()
		h.p.NodeArrived(id)
	})
}

// arriveModel is arriveAt with an arbitrary mobility model.
func (h *harness) arriveModel(at time.Duration, id radio.NodeID, m mobility.Model) {
	h.t.Helper()
	h.rt.Sim.ScheduleAt(at, func() {
		if err := h.rt.Topo.Add(id, m); err != nil {
			h.t.Errorf("add node %d: %v", id, err)
			return
		}
		h.rt.Net.InvalidateSnapshot()
		h.p.NodeArrived(id)
	})
}

func (h *harness) departAt(at time.Duration, id radio.NodeID, graceful bool) {
	h.rt.Sim.ScheduleAt(at, func() { h.p.NodeDeparting(id, graceful) })
}

// runUntil advances virtual time, stopping the maintenance ticker at the
// horizon so Run-style drains terminate.
func (h *harness) runUntil(horizon time.Duration) {
	h.t.Helper()
	if err := h.rt.Sim.RunUntil(horizon); err != nil {
		h.t.Fatalf("RunUntil: %v", err)
	}
}

func (h *harness) assertNoConflicts() {
	h.t.Helper()
	if c := h.p.AddressConflicts(); len(c) != 0 {
		h.t.Fatalf("address conflicts: %v", c)
	}
}

// membersOf returns the common nodes head id tracks as its cluster
// members, ascending; nil when id is not a head.
func (h *harness) membersOf(id radio.NodeID) []radio.NodeID {
	if nd, ok := h.p.nodes[id]; ok && nd.isHead() {
		return sortedIDs(nd.members)
	}
	return nil
}

func smallSpace() Params {
	return Params{Space: addrspace.Block{Lo: 1, Hi: 64}}
}

func TestFirstNodeBecomesHead(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.runUntil(30 * time.Second)

	if got := h.p.Role(0); got != RoleHead {
		t.Fatalf("Role(0) = %v, want head", got)
	}
	ip, ok := h.p.IP(0)
	if !ok || ip != 1 {
		t.Fatalf("IP(0) = %v,%v, want 1 (first address of space)", ip, ok)
	}
	if nid, _ := h.p.NetworkID(0); nid != ip {
		t.Errorf("NetworkID = %v, want own IP %v", nid, ip)
	}
	if got := h.p.OwnSpaceSize(0); got != 64 {
		t.Errorf("OwnSpaceSize = %d, want 64 (whole space)", got)
	}
	// Max_r broadcasts happened before self-declaring.
	if n := h.rt.Coll.Counter(CounterConfiguredHeads); n != 1 {
		t.Errorf("configured heads = %d, want 1", n)
	}
	lat := h.rt.Coll.Summarize(protocol.SampleConfigLatency)
	if lat.Count != 1 || lat.Mean != float64(maxRetries) {
		t.Errorf("first-node latency = %+v, want %d broadcast hops", lat, maxRetries)
	}
}

func TestSecondNodeJoinsAsCommon(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.arriveAt(20*time.Second, 1, 600, 500) // 1 hop from the head
	h.runUntil(40 * time.Second)

	if got := h.p.Role(1); got != RoleCommon {
		t.Fatalf("Role(1) = %v, want common", got)
	}
	ip1, ok := h.p.IP(1)
	if !ok {
		t.Fatal("node 1 unconfigured")
	}
	ip0, _ := h.p.IP(0)
	if ip1 == ip0 {
		t.Fatal("duplicate address")
	}
	if nid1, _ := h.p.NetworkID(1); nid1 != ip0 {
		t.Errorf("NetworkID(1) = %v, want %v", nid1, ip0)
	}
	h.assertNoConflicts()
	if got := h.membersOf(0); len(got) != 1 || got[0] != 1 {
		t.Errorf("members of head 0 = %v, want [1]", got)
	}
}

func TestDistantNodeBecomesHeadViaBlockSplit(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 0, 0)
	// 3 hops away (100m spacing line, range 150): relay nodes first.
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	h.runUntil(100 * time.Second)

	if got := h.p.Role(3); got != RoleHead {
		t.Fatalf("Role(3) = %v, want head (no head within 2 hops)", got)
	}
	// The new head received half the allocator's space.
	if own := h.p.OwnSpaceSize(3); own == 0 || own >= 64 {
		t.Errorf("OwnSpaceSize(3) = %d, want a split block", own)
	}
	if own0 := h.p.OwnSpaceSize(0); own0+h.p.OwnSpaceSize(3) != 64 {
		t.Errorf("blocks do not partition the space: %d + %d != 64", own0, h.p.OwnSpaceSize(3))
	}
	// Heads are mutually replicated (QDSet distance is 3 hops).
	if qd := h.p.QDSetSize(3); qd != 1 {
		t.Errorf("QDSetSize(3) = %d, want 1", qd)
	}
	if qd := h.p.QDSetSize(0); qd != 1 {
		t.Errorf("QDSetSize(0) = %d, want 1", qd)
	}
	if eff := h.p.EffectiveSpaceSize(0); eff != 64 {
		t.Errorf("EffectiveSpaceSize(0) = %d, want 64 (own + replica)", eff)
	}
	h.assertNoConflicts()
}

func TestSequentialArrivalAllConfigured(t *testing.T) {
	h := newHarness(t, Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
	// A 4x5 grid, 120m spacing: connected, multi-hop.
	id := radio.NodeID(0)
	at := time.Duration(0)
	for r := 0; r < 4; r++ {
		for c := 0; c < 5; c++ {
			h.arriveAt(at, id, float64(c)*120, float64(r)*120)
			id++
			at += 8 * time.Second
		}
	}
	h.runUntil(at + 60*time.Second)

	for n := radio.NodeID(0); n < id; n++ {
		if !h.p.IsConfigured(n) {
			t.Errorf("node %d unconfigured (role %v)", n, h.p.Role(n))
		}
	}
	h.assertNoConflicts()
	if heads := h.p.Heads(); len(heads) == 0 {
		t.Error("no heads formed")
	}
	if got := int(h.rt.Coll.Counter(CounterConfigured)); got != int(id) {
		t.Errorf("configured counter = %d, want %d", got, id)
	}
	if lat := h.rt.Coll.Summarize(protocol.SampleConfigLatency); lat.Count != int(id) {
		t.Errorf("latency samples = %d, want %d", lat.Count, id)
	}
}

func TestConfigLatencyBounded(t *testing.T) {
	// The paper's headline: configuration is local (<10 hops) because all
	// exchanges are bounded by the 2-hop join and 3-hop QDSet radii.
	h := newHarness(t, Params{Space: addrspace.Block{Lo: 1, Hi: 1024}})
	id := radio.NodeID(0)
	at := time.Duration(0)
	for r := 0; r < 3; r++ {
		for c := 0; c < 7; c++ {
			h.arriveAt(at, id, float64(c)*130, float64(r)*130)
			id++
			at += 8 * time.Second
		}
	}
	h.runUntil(at + 60*time.Second)
	lat := h.rt.Coll.Summarize(protocol.SampleConfigLatency)
	if lat.Count == 0 {
		t.Fatal("no latency samples")
	}
	if lat.Mean >= 12 {
		t.Errorf("mean config latency = %.1f hops, want local (<12)", lat.Mean)
	}
}

func TestReplicasConsistentAfterConfiguration(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	h.arriveAt(80*time.Second, 4, 120, 40) // common node under head 0
	h.runUntil(120 * time.Second)

	h.assertNoConflicts()
	// Head 3 holds a replica of head 0's space; node 4's address must be
	// occupied there with the same version as at head 0.
	nd0, nd3 := h.p.nodes[radio.NodeID(0)], h.p.nodes[radio.NodeID(3)]
	ip4, ok := h.p.IP(4)
	if !ok {
		t.Fatal("node 4 unconfigured")
	}
	local, ok := nd0.localEntry(0, ip4)
	if !ok || local.Status != addrspace.Occupied {
		t.Fatalf("allocator entry for %v = %+v,%v", ip4, local, ok)
	}
	replica, ok := nd3.localEntry(0, ip4)
	if !ok {
		t.Fatal("head 3 has no replica entry for node 4's address")
	}
	if replica != local {
		t.Errorf("replica %+v != primary %+v", replica, local)
	}
}

func TestGracefulDepartureFreesAddress(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.arriveAt(20*time.Second, 1, 600, 500)
	var ip1 addrspace.Addr
	h.rt.Sim.ScheduleAt(40*time.Second, func() { ip1, _ = h.p.IP(1) })
	h.departAt(41*time.Second, 1, true)
	h.runUntil(60 * time.Second)

	if h.p.Alive(1) {
		t.Fatal("node 1 still alive after graceful departure")
	}
	nd0 := h.p.nodes[radio.NodeID(0)]
	e, ok := nd0.localEntry(0, ip1)
	if !ok || e.Status != addrspace.Free {
		t.Fatalf("returned address %v entry = %+v,%v, want free", ip1, e, ok)
	}
	if h.rt.Coll.Counter(CounterAddrReturned) == 0 {
		t.Error("no address-returned event recorded")
	}
	if h.rt.Coll.Hops(metrics.CatDeparture) == 0 {
		t.Error("departure exchange charged no hops")
	}
	// The freed address is reusable by the next arrival.
	h.arriveAt(61*time.Second, 2, 600, 500)
	h.runUntil(90 * time.Second)
	if ip2, ok := h.p.IP(2); !ok || ip2 != ip1 {
		t.Errorf("IP(2) = %v,%v, want reuse of freed %v", ip2, ok, ip1)
	}
}

func TestGracefulHeadDepartureReturnsBlock(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)  // head via split
	h.arriveAt(80*time.Second, 4, 320, 60) // common under head 3
	h.departAt(120*time.Second, 3, true)
	h.runUntil(160 * time.Second)

	if h.p.Alive(3) {
		t.Fatal("head 3 still alive")
	}
	// Its block went back to its configurer, head 0.
	if own := h.p.OwnSpaceSize(0); own != 64 {
		t.Errorf("OwnSpaceSize(0) = %d, want 64 (block returned and merged)", own)
	}
	// Node 4 was told its new allocator.
	nd4 := h.p.nodes[radio.NodeID(4)]
	if !nd4.hasConfigurer || nd4.configurer != 0 {
		t.Errorf("node 4 configurer = %v (has=%v), want 0", nd4.configurer, nd4.hasConfigurer)
	}
	if got := h.membersOf(0); len(got) == 0 {
		t.Error("head 0 adopted no members")
	}
	h.assertNoConflicts()
}

func TestAbruptHeadDepartureTriggersReclamation(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)  // head (QDSet partner of 0)
	h.arriveAt(80*time.Second, 4, 320, 60) // common under 3
	h.departAt(120*time.Second, 3, false)  // crash
	h.runUntil(200 * time.Second)

	if h.rt.Coll.Counter(CounterReclamations) == 0 {
		t.Fatal("no reclamation initiated after head crash")
	}
	if h.rt.Coll.Hops(metrics.CatReclamation) == 0 {
		t.Error("reclamation charged no traffic")
	}
	// Head 0 still holds the replica of 3's space; 3's own IP must have
	// been freed, while surviving member 4's address stays occupied.
	nd0 := h.p.nodes[radio.NodeID(0)]
	rep := nd0.replicas[radio.NodeID(3)]
	if rep == nil {
		t.Fatal("head 0 lost replica of dead head 3")
	}
	info := h.p.departed[radio.NodeID(3)]
	if !info.HasIP {
		t.Fatal("necrology lost head 3's IP")
	}
	if e, ok := rep.Get(info.IP); !ok || e.Status != addrspace.Free {
		t.Errorf("dead head's own IP entry = %+v,%v, want free", e, ok)
	}
	ip4, ok := h.p.IP(4)
	if !ok {
		t.Fatal("survivor 4 lost its address")
	}
	if e, ok := rep.Get(ip4); !ok || e.Status != addrspace.Occupied {
		t.Errorf("survivor's address entry = %+v,%v, want occupied", e, ok)
	}
	h.assertNoConflicts()
}

func TestBorrowingFromQuorumSpace(t *testing.T) {
	// Head 3's own block is tiny; joining many nodes around it forces
	// borrowing from the replica of head 0's space (§V-A).
	h := newHarness(t, Params{Space: addrspace.Block{Lo: 1, Hi: 8}})
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0) // head with 4 of 8 addresses
	// Fill head 3's block (4 addrs, one its own IP -> 3 free).
	at := 80 * time.Second
	for i := radio.NodeID(4); i < 9; i++ {
		h.arriveAt(at, i, 320, 60)
		at += 15 * time.Second
	}
	h.runUntil(at + 60*time.Second)

	configured := 0
	for i := radio.NodeID(4); i < 9; i++ {
		if h.p.IsConfigured(i) {
			configured++
		}
	}
	if configured < 4 {
		t.Errorf("only %d of 5 joiners configured; borrowing failed", configured)
	}
	if h.rt.Coll.Counter(CounterBorrowed) == 0 {
		t.Error("no borrowed allocations recorded")
	}
	h.assertNoConflicts()
}

func TestBorrowingDisabledAblation(t *testing.T) {
	p := Params{Space: addrspace.Block{Lo: 1, Hi: 8}, DisableBorrowing: true}
	h := newHarness(t, p)
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	at := 80 * time.Second
	for i := radio.NodeID(4); i < 9; i++ {
		h.arriveAt(at, i, 320, 60)
		at += 15 * time.Second
	}
	h.runUntil(at + 60*time.Second)
	if h.rt.Coll.Counter(CounterBorrowed) != 0 {
		t.Error("borrowing happened despite DisableBorrowing")
	}
	h.assertNoConflicts()
}

func TestQuorumShrinkAfterMemberCrash(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	h.departAt(120*time.Second, 3, false)
	h.runUntil(200 * time.Second)

	if h.rt.Coll.Counter(CounterQuorumShrinks) == 0 {
		t.Error("no quorum shrink after QDSet member crash")
	}
	if h.p.QDSetSize(0) != 0 {
		t.Errorf("QDSetSize(0) = %d, want 0 after shrink", h.p.QDSetSize(0))
	}
	// Configuration still works with the shrunken (self-only) quorum.
	h.arriveAt(201*time.Second, 5, 60, 60)
	h.runUntil(240 * time.Second)
	if !h.p.IsConfigured(5) {
		t.Error("configuration broken after quorum shrink")
	}
	h.assertNoConflicts()
}

func TestLocationUpdateOnMovement(t *testing.T) {
	h := newHarness(t, smallSpace())
	// Static backbone line of heads.
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	h.arriveAt(80*time.Second, 4, 400, 0)
	h.arriveAt(100*time.Second, 5, 500, 0)
	h.arriveAt(120*time.Second, 6, 600, 0) // head at 6 hops from head 0
	// Node 7 joins next to head 0, then wanders to the far end.
	path, err := mobility.NewPath(
		[]time.Duration{150 * time.Second, 400 * time.Second},
		[]mobility.Point{{X: 60, Y: 0}, {X: 620, Y: 40}},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.arriveModel(140*time.Second, 7, path)
	h.runUntil(450 * time.Second)

	if h.rt.Coll.Counter(CounterLocationUpdates) == 0 {
		t.Error("no UPDATE_LOC sent despite >3 hop drift")
	}
	if h.rt.Coll.Hops(metrics.CatMovement) == 0 {
		t.Error("movement traffic not charged")
	}
	nd7 := h.p.nodes[radio.NodeID(7)]
	if nd7 == nil || !nd7.hasAdmin {
		t.Fatal("moved node has no administrator")
	}
	h.assertNoConflicts()
}

func TestUponLeaveSchemeNoMovementTraffic(t *testing.T) {
	params := smallSpace()
	params.UponLeaveOnly = true
	h := newHarness(t, params)
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	path, err := mobility.NewPath(
		[]time.Duration{40 * time.Second, 200 * time.Second},
		[]mobility.Point{{X: 60, Y: 0}, {X: 120, Y: 60}},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.arriveModel(30*time.Second, 2, path)
	h.runUntil(250 * time.Second)
	if got := h.rt.Coll.Hops(metrics.CatMovement); got != 0 {
		t.Errorf("upon-leave scheme charged %d movement hops, want 0", got)
	}
}

func TestHelloTrafficCharged(t *testing.T) {
	h := newHarness(t, smallSpace())
	h.arriveAt(0, 0, 500, 500)
	h.runUntil(30 * time.Second)
	if h.rt.Coll.Hops(metrics.CatHello) == 0 {
		t.Error("hello beacons not charged")
	}
	// And excluded from the default overhead total.
	if h.rt.Coll.TotalHops() >= h.rt.Coll.Hops(metrics.CatHello)+h.rt.Coll.Hops(metrics.CatConfig) {
		t.Error("TotalHops appears to include hello")
	}
}

func TestLargestBlockAllocatorChoice(t *testing.T) {
	params := smallSpace()
	params.LargestBlockAllocator = true
	h := newHarness(t, params)
	h.arriveAt(0, 0, 0, 0)
	h.arriveAt(20*time.Second, 1, 100, 0)
	h.arriveAt(40*time.Second, 2, 200, 0)
	h.arriveAt(60*time.Second, 3, 300, 0)
	// Node within 2 hops of both heads 0 and 3: must pick the one with
	// the larger free block (head 0 kept the bigger half: 32 vs 32...
	// equal split; configuring extra nodes first skews it).
	h.arriveAt(80*time.Second, 4, 60, 60)
	h.arriveAt(100*time.Second, 5, 150, 80) // reaches both heads in <=2 hops
	h.runUntil(140 * time.Second)
	if !h.p.IsConfigured(5) {
		t.Fatal("node 5 unconfigured")
	}
	h.assertNoConflicts()
}

func TestNewValidation(t *testing.T) {
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(nil, Params{}); err == nil {
		t.Error("nil runtime accepted")
	}
	if _, err := New(rt, Params{Space: addrspace.Block{Lo: 5, Hi: 5}}); err == nil {
		t.Error("single-address space accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	rt, err := protocol.NewRuntime(protocol.RuntimeConfig{Seed: 1, TransmissionRange: 100})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(rt, Params{})
	if err != nil {
		t.Fatal(err)
	}
	prm := p.Params()
	if prm.Td == 0 || prm.MinReplicas == 0 || prm.Space.IsEmpty() {
		t.Errorf("defaults missing: %+v", prm)
	}
	if p.Name() != "quorum" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestRoleString(t *testing.T) {
	if RoleUnconfigured.String() != "unconfigured" || RoleCommon.String() != "common" || RoleHead.String() != "head" {
		t.Error("role names wrong")
	}
	if Role(9).String() == "" {
		t.Error("unknown role renders empty")
	}
}

func TestIntrospectionOnUnknownNodes(t *testing.T) {
	h := newHarness(t, smallSpace())
	if h.p.Role(99) != RoleUnconfigured {
		t.Error("unknown node has a role")
	}
	if _, ok := h.p.IP(99); ok {
		t.Error("unknown node has an IP")
	}
	if h.p.QDSetSize(99) != 0 || h.p.OwnSpaceSize(99) != 0 || h.p.EffectiveSpaceSize(99) != 0 {
		t.Error("unknown node has head stats")
	}
	if h.p.HoldersOf(99) != nil {
		t.Error("unknown node has holders")
	}
	if h.membersOf(99) != nil {
		t.Error("unknown node has members")
	}
}
