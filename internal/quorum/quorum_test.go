package quorum

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

// TestMajoritySize: the smallest vote count that wins without the
// tie-break is floor(n/2)+1 of n voters.
func TestMajoritySize(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 100: 51}
	for n, want := range cases {
		got := 1
		for !HasQuorum(got, n, false) {
			got++
		}
		if got != want {
			t.Errorf("smallest strict majority of %d = %d, want %d", n, got, want)
		}
	}
}

func TestHasQuorumStrictMajority(t *testing.T) {
	cases := []struct {
		granted, total int
		dist, want     bool
	}{
		{3, 5, false, true},  // strict majority
		{2, 5, false, false}, // below majority, odd total
		{2, 5, true, false},  // distinguished can't rescue below-half
		{2, 4, false, false}, // exact half without distinguished
		{2, 4, true, true},   // exact half with distinguished: dynamic linear voting
		{3, 4, false, true},  // strict majority, distinguished irrelevant
		{1, 1, false, true},  // single-voter system
		{0, 4, true, false},  // no votes
		{1, 2, true, true},   // half of two with distinguished
		{1, 2, false, false}, // half of two without
		{5, 4, false, true},  // granted clamped to total
		{1, 0, false, false}, // degenerate totals
		{0, 0, false, false},
	}
	for _, c := range cases {
		if got := HasQuorum(c.granted, c.total, c.dist); got != c.want {
			t.Errorf("HasQuorum(%d, %d, %v) = %v, want %v", c.granted, c.total, c.dist, got, c.want)
		}
	}
}

func newTestBallot(t *testing.T, voters ...radio.NodeID) *Ballot {
	t.Helper()
	b, err := NewBallot(voters)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBallotValidation(t *testing.T) {
	if _, err := NewBallot(nil); err == nil {
		t.Error("empty electorate accepted")
	}
	if _, err := NewBallot([]radio.NodeID{1, 2, 1}); err == nil {
		t.Error("duplicate voters accepted")
	}
}

func TestBallotCastRules(t *testing.T) {
	b := newTestBallot(t, 1, 2, 3)
	if err := b.Cast(1, addrspace.Entry{Status: addrspace.Free}); err != nil {
		t.Fatal(err)
	}
	if err := b.Cast(1, addrspace.Entry{Status: addrspace.Free}); err == nil {
		t.Error("duplicate vote accepted")
	}
	if err := b.Cast(9, addrspace.Entry{Status: addrspace.Free}); err == nil {
		t.Error("outsider vote accepted")
	}
	if out := b.Outstanding(); !slices.Equal(out, []radio.NodeID{2, 3}) {
		t.Errorf("Outstanding = %v, want [2 3]", out)
	}
	if v := b.Voters(); !slices.Equal(v, []radio.NodeID{1, 2, 3}) {
		t.Errorf("Voters = %v, want [1 2 3]", v)
	}
}

func TestBallotQuorumProgression(t *testing.T) {
	b := newTestBallot(t, 1, 2, 3, 4, 5)
	for i, v := range []radio.NodeID{1, 2} {
		if b.HasQuorum() {
			t.Fatalf("quorum before majority at %d votes", i)
		}
		if err := b.Cast(v, addrspace.Entry{Status: addrspace.Free, Version: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Cast(3, addrspace.Entry{Status: addrspace.Free, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if !b.HasQuorum() {
		t.Error("no quorum at 3/5 votes")
	}
}

func TestBallotDynamicLinearVoting(t *testing.T) {
	// 4 voters, exactly 2 votes: quorum only if distinguished voted.
	b := newTestBallot(t, 1, 2, 3, 4)
	if err := b.SetDistinguished(1); err != nil {
		t.Fatal(err)
	}
	if err := b.Cast(1, addrspace.Entry{Status: addrspace.Free, Version: 2}); err != nil {
		t.Fatal(err)
	}
	if err := b.Cast(2, addrspace.Entry{Status: addrspace.Free, Version: 1}); err != nil {
		t.Fatal(err)
	}
	if !b.HasQuorum() {
		t.Error("half including distinguished node should be a quorum")
	}

	b2 := newTestBallot(t, 1, 2, 3, 4)
	if err := b2.SetDistinguished(1); err != nil {
		t.Fatal(err)
	}
	if err := b2.Cast(2, addrspace.Entry{}); err != nil {
		t.Fatal(err)
	}
	if err := b2.Cast(3, addrspace.Entry{}); err != nil {
		t.Fatal(err)
	}
	if b2.HasQuorum() {
		t.Error("half excluding distinguished node must not be a quorum")
	}
}

func TestSetDistinguishedOutsideElectorate(t *testing.T) {
	b := newTestBallot(t, 1, 2)
	if err := b.SetDistinguished(5); err == nil {
		t.Error("distinguished outsider accepted")
	}
}

func TestBallotLatestPicksHighestVersion(t *testing.T) {
	b := newTestBallot(t, 1, 2, 3)
	_ = b.Cast(1, addrspace.Entry{Status: addrspace.Free, Version: 3})
	_ = b.Cast(2, addrspace.Entry{Status: addrspace.Occupied, Version: 7})
	_ = b.Cast(3, addrspace.Entry{Status: addrspace.Free, Version: 5})
	d, err := b.Decide()
	if err != nil || d.Entry != (addrspace.Entry{Status: addrspace.Occupied, Version: 7}) {
		t.Errorf("Decide = %+v,%v, want occupied v7", d, err)
	}
}

func TestBallotDecide(t *testing.T) {
	b := newTestBallot(t, 1, 2, 3)
	if _, err := b.Decide(); err == nil {
		t.Error("Decide without quorum accepted")
	}
	_ = b.Cast(1, addrspace.Entry{Status: addrspace.Free, Version: 1})
	_ = b.Cast(2, addrspace.Entry{Status: addrspace.Free, Version: 2})
	d, err := b.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Available {
		t.Error("address with fresh free entries reported unavailable")
	}

	// A single fresher occupied vote flips the decision.
	b2 := newTestBallot(t, 1, 2, 3)
	_ = b2.Cast(1, addrspace.Entry{Status: addrspace.Free, Version: 1})
	_ = b2.Cast(2, addrspace.Entry{Status: addrspace.Occupied, Version: 9})
	d2, err := b2.Decide()
	if err != nil {
		t.Fatal(err)
	}
	if d2.Available {
		t.Error("freshest occupied entry must make address unavailable")
	}
	if d2.Entry.Version != 9 {
		t.Errorf("decision entry = %+v, want v9", d2.Entry)
	}

	// A stale occupied vote does not: the freshest copy decides.
	b3 := newTestBallot(t, 1, 2, 3)
	_ = b3.Cast(1, addrspace.Entry{Status: addrspace.Occupied, Version: 4})
	_ = b3.Cast(2, addrspace.Entry{Status: addrspace.Free, Version: 5})
	if d3, err := b3.Decide(); err != nil || !d3.Available || d3.Entry.Version != 5 {
		t.Errorf("Decide = %+v,%v, want available at v5", d3, err)
	}
}

// TestBallotDecideIndependentOfCastOrder: the same votes decide the same
// way whatever order they are cast in, and occupied wins a version tie.
func TestBallotDecideIndependentOfCastOrder(t *testing.T) {
	votes := []addrspace.Entry{
		{Status: addrspace.Free, Version: 5},
		{Status: addrspace.Occupied, Version: 5},
		{Status: addrspace.Free, Version: 5},
		{Status: addrspace.Occupied, Version: 2},
		{Status: addrspace.Free, Version: 3},
	}
	want := Decision{Available: false, Entry: addrspace.Entry{Status: addrspace.Occupied, Version: 5}}
	rng := rand.New(rand.NewSource(1))
	for rep := 0; rep < 50; rep++ {
		b := newTestBallot(t, 1, 2, 3, 4, 5)
		for _, i := range rng.Perm(len(votes)) {
			if err := b.Cast(radio.NodeID(i+1), votes[i]); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := b.Decide(); err != nil || got != want {
			t.Fatalf("repeat %d: Decide = %+v,%v, want %+v", rep, got, err, want)
		}
	}
}

func TestBallotOutstandingSorted(t *testing.T) {
	b := newTestBallot(t, 5, 1, 3)
	_ = b.Cast(3, addrspace.Entry{})
	out := b.Outstanding()
	if len(out) != 2 || out[0] != 1 || out[1] != 5 {
		t.Errorf("Outstanding = %v, want [1 5]", out)
	}
}

func TestBallotVotersAscending(t *testing.T) {
	b := newTestBallot(t, 9, 4, 7, 1, 12)
	_ = b.Cast(7, addrspace.Entry{})
	if v := b.Voters(); !slices.Equal(v, []radio.NodeID{1, 4, 7, 9, 12}) {
		t.Errorf("Voters = %v, want [1 4 7 9 12]", v)
	}
	b.Drop(4)
	if v := b.Voters(); !slices.Equal(v, []radio.NodeID{1, 7, 9, 12}) {
		t.Errorf("Voters after Drop(4) = %v, want [1 7 9 12]", v)
	}
}

// TestBallotDropMatchesRebuild: dropping a voter leaves the same ballot as
// building one over the remaining voters and re-casting their votes — for
// every vote subset, every voter dropped (the distinguished node and an
// outsider included).
func TestBallotDropMatchesRebuild(t *testing.T) {
	electorate := []radio.NodeID{1, 2, 3, 4, 5}
	const dist = 1
	entry := func(id radio.NodeID) addrspace.Entry {
		return addrspace.Entry{Status: addrspace.Status(1 + id%2), Version: uint64(id % 3)}
	}
	for mask := 0; mask < 1<<len(electorate); mask++ {
		for drop := radio.NodeID(1); drop <= 6; drop++ {
			got := newTestBallot(t, electorate...)
			_ = got.SetDistinguished(dist)
			var rest []radio.NodeID
			for i, id := range electorate {
				if mask&(1<<i) != 0 {
					_ = got.Cast(id, entry(id))
				}
				if id != drop {
					rest = append(rest, id)
				}
			}
			if !got.Drop(drop) {
				t.Fatalf("Drop(%d) reports no voter left of %v", drop, rest)
			}
			want := newTestBallot(t, rest...)
			if drop != dist {
				_ = want.SetDistinguished(dist)
			}
			for i, id := range electorate {
				if mask&(1<<i) != 0 && id != drop {
					_ = want.Cast(id, entry(id))
				}
			}
			if err := sameTally(got, want); err != "" {
				t.Fatalf("votes %05b, Drop(%d): %s", mask, drop, err)
			}
		}
	}

	b := newTestBallot(t, 7)
	if b.Drop(7) {
		t.Error("Drop of the last voter reports voters left")
	}
}

// sameTally compares everything a ballot reports; "" when all agree.
func sameTally(got, want *Ballot) string {
	switch {
	case !slices.Equal(got.Voters(), want.Voters()):
		return "Voters differ"
	case !slices.Equal(got.Outstanding(), want.Outstanding()):
		return "Outstanding differs"
	case got.HasQuorum() != want.HasQuorum():
		return "HasQuorum differs"
	case got.HasStrictMajority() != want.HasStrictMajority():
		return "HasStrictMajority differs"
	}
	gd, gerr := got.Decide()
	wd, werr := want.Decide()
	if gd != wd || (gerr == nil) != (werr == nil) {
		return "Decide differs"
	}
	return ""
}

// Property: two disjoint vote sets cannot both hold a quorum — the heart of
// the uniqueness guarantee. For any electorate size and any split of voters
// into two disjoint groups, at most one group has a quorum (with at most
// one group containing the distinguished node).
func TestPropertyNoTwoDisjointQuorums(t *testing.T) {
	f := func(total uint8, split uint8, distInFirst bool) bool {
		n := int(total%12) + 1
		a := int(split) % (n + 1)
		bCount := n - a // the complementary, disjoint group
		qa := HasQuorum(a, n, distInFirst)
		qb := HasQuorum(bCount, n, !distInFirst)
		return !(qa && qb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Decide always reports the max-version vote cast.
func TestPropertyLatestIsMax(t *testing.T) {
	f := func(versions []uint8) bool {
		if len(versions) == 0 || len(versions) > 50 {
			return true
		}
		voters := make([]radio.NodeID, len(versions))
		for i := range voters {
			voters[i] = radio.NodeID(i)
		}
		b, err := NewBallot(voters)
		if err != nil {
			return false
		}
		var max uint64
		for i, v := range versions {
			if err := b.Cast(radio.NodeID(i), addrspace.Entry{Status: addrspace.Free, Version: uint64(v)}); err != nil {
				return false
			}
			if uint64(v) > max {
				max = uint64(v)
			}
		}
		d, err := b.Decide()
		return err == nil && d.Entry.Version == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzBallot drives a ballot through an arbitrary sequence of Cast and
// Drop calls and checks it against a tally recomputed from scratch over the
// surviving voters and their votes.
func FuzzBallot(f *testing.F) {
	f.Add([]byte{5, 0, 0x10, 0x21, 0x33, 0x01, 0x42})
	f.Add([]byte{4, 1, 0x11, 0x21, 0x03, 0x13})
	f.Add([]byte{1, 0, 0x01, 0x10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		n := int(ops[0]%9) + 1
		dist := radio.NodeID(ops[1] % uint8(n))
		voters := make([]radio.NodeID, n)
		alive := make(map[radio.NodeID]bool, n)
		for i := range voters {
			voters[i] = radio.NodeID(i)
			alive[voters[i]] = true
		}
		b, err := NewBallot(voters)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SetDistinguished(dist); err != nil {
			t.Fatal(err)
		}
		votes := make(map[radio.NodeID]addrspace.Entry)
		for _, op := range ops[2:] {
			id := radio.NodeID(op>>4) % radio.NodeID(n+2) // two IDs never in the electorate
			if op&1 == 1 {
				delete(alive, id)
				delete(votes, id)
				if left := b.Drop(id); left != (len(alive) > 0) {
					t.Fatalf("Drop(%d) = %v with %d voters left", id, left, len(alive))
				}
				continue
			}
			e := addrspace.Entry{Status: addrspace.Status(1 + op>>1&1), Version: uint64(op >> 2 & 3)}
			_, dup := votes[id]
			accept := alive[id] && !dup
			if err := b.Cast(id, e); (err == nil) != accept {
				t.Fatalf("Cast(%d) = %v, want accepted %v", id, err, accept)
			}
			if accept {
				votes[id] = e
			}
		}

		granted, total := len(votes), len(alive)
		_, distVoted := votes[dist]
		strict := granted > 0 && 2*granted > total
		quorum := strict || (granted > 0 && 2*granted == total && distVoted)
		if got := b.HasStrictMajority(); got != strict {
			t.Fatalf("HasStrictMajority = %v, reference %v (%d/%d)", got, strict, granted, total)
		}
		if got := b.HasQuorum(); got != quorum {
			t.Fatalf("HasQuorum = %v, reference %v (%d/%d, distinguished voted %v)", got, quorum, granted, total, distVoted)
		}
		d, err := b.Decide()
		if (err == nil) != quorum {
			t.Fatalf("Decide error %v with quorum %v", err, quorum)
		}
		if !quorum {
			return
		}
		cast := make([]addrspace.Entry, 0, len(votes))
		for _, e := range votes {
			cast = append(cast, e)
		}
		slices.SortFunc(cast, func(x, y addrspace.Entry) int {
			if x.Version != y.Version {
				return int(x.Version) - int(y.Version)
			}
			return int(x.Status) - int(y.Status)
		})
		freshest := cast[len(cast)-1]
		if d.Entry != freshest || d.Available != (freshest.Status != addrspace.Occupied) {
			t.Fatalf("Decide = %+v, reference freshest %+v", d, freshest)
		}
	})
}
