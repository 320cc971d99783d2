package quorum

import (
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
)

const testTTL = 8 * time.Nanosecond

// grantStep is one call on a Grants table. want is checked for grant,
// reserve and reserved.
type grantStep struct {
	op        string // grant, reserve, reserved, close, release
	allocator radio.NodeID
	ballot    uint64
	now       time.Duration
	want      bool
}

func (s grantStep) apply(g *Grants, a addrspace.Addr) (got, checked bool) {
	switch s.op {
	case "grant":
		return g.Grant(a, s.allocator, s.ballot, s.now), true
	case "reserve":
		return g.Reserve(a, s.allocator, s.ballot, s.now), true
	case "reserved":
		return g.Reserved(a), true
	case "close":
		g.Close(a, s.allocator, s.ballot)
	case "release":
		g.Release(a)
	}
	return false, false
}

func TestGrants(t *testing.T) {
	const a, b, self = radio.NodeID(2), radio.NodeID(3), radio.NodeID(1)
	cases := []struct {
		name  string
		steps []grantStep
	}{
		{"grant", []grantStep{
			{"grant", a, 1, 0, true},
			{"reserved", 0, 0, 0, false},
		}},
		{"same ballot re-asked renews", []grantStep{
			{"grant", a, 1, 0, true},
			{"grant", a, 1, 5, true},
			{"grant", b, 2, testTTL + 1, false}, // renewed at 5: held until 5+ttl
		}},
		{"different ballot busy", []grantStep{
			{"grant", a, 1, 0, true},
			{"grant", a, 2, 1, false},
		}},
		{"same ballot ID from another allocator busy", []grantStep{
			{"grant", a, 7, 0, true},
			{"grant", b, 7, 1, false},
		}},
		{"expiry", []grantStep{
			{"grant", a, 1, 0, true},
			{"grant", b, 2, testTTL - 1, false},
			{"grant", b, 2, testTTL, true},
			{"grant", a, 1, testTTL + 1, false}, // now b holds it
		}},
		{"own ballot holds own vote", []grantStep{
			{"reserve", self, 1, 0, true},
			{"reserved", 0, 0, 0, true},
			{"grant", a, 1, 1, false},
			{"reserve", self, 2, 1, false}, // a second own ballot is a rival too
		}},
		{"reserve refused by a held vote", []grantStep{
			{"grant", a, 1, 0, true},
			{"reserve", self, 2, 1, false},
			{"reserved", 0, 0, 0, false},
		}},
		{"release keeps the reservation", []grantStep{
			{"reserve", self, 1, 0, true},
			{"release", 0, 0, 1, false},
			{"reserved", 0, 0, 0, true},
			{"grant", a, 2, 1, true},
			{"reserved", 0, 0, 0, true},
			{"close", self, 1, 2, false},
			{"reserved", 0, 0, 0, false},
			{"grant", b, 3, 2, false}, // a's vote outlives self's close
		}},
		{"close by the holder frees both", []grantStep{
			{"reserve", self, 1, 0, true},
			{"close", self, 1, 1, false},
			{"reserved", 0, 0, 0, false},
			{"grant", a, 2, 1, true},
		}},
		{"close by a ballot that does not hold the vote", []grantStep{
			{"reserve", self, 1, 0, true},
			{"grant", a, 2, testTTL, true}, // self's vote expired
			{"close", self, 1, testTTL, false},
			{"reserved", 0, 0, 0, false},
			{"grant", b, 3, testTTL + 1, false},
		}},
		{"close and release without a record", []grantStep{
			{"close", self, 1, 0, false},
			{"release", 0, 0, 0, false},
			{"reserved", 0, 0, 0, false},
			{"grant", a, 1, 0, true},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := NewGrants(testTTL)
			for i, s := range c.steps {
				if got, checked := s.apply(g, 10); checked && got != s.want {
					t.Fatalf("step %d %+v = %v, want %v", i, s, got, s.want)
				}
			}
		})
	}
	t.Run("nil receiver", func(t *testing.T) {
		var g *Grants
		if g.Reserved(10) {
			t.Fatal("nil table reports a reservation")
		}
		g.Close(10, self, 1)
		g.Release(10)
	})
}

// refGrants is the exclusion rule as two maps, one per side, the way each
// engine kept it before Grants: the allocator's pending addresses and the
// voter's grants, keyed by (allocator, ballot).
type refGrants struct {
	pending map[addrspace.Addr]bool
	grants  map[addrspace.Addr]lock
}

func (r *refGrants) grant(a addrspace.Addr, allocator radio.NodeID, ballot uint64, now time.Duration) bool {
	if g, held := r.grants[a]; held && (g.allocator != allocator || g.ballot != ballot) && now < g.expires {
		return false
	}
	r.grants[a] = lock{allocator: allocator, ballot: ballot, expires: now + testTTL}
	return true
}

// FuzzGrants drives a Grants table and the two-map reference through the
// same Reserve/Grant/Release/Close calls and clock steps, and after every
// step compares the answers and the whole state.
func FuzzGrants(f *testing.F) {
	f.Add([]byte{0x00, 0x21, 0x44, 0x02, 0x63, 0xfc, 0x01})
	f.Add([]byte{0x08, 0x29, 0x0a, 0x0b, 0x0c, 0x4c, 0x28})
	f.Add([]byte{0x40, 0xc1, 0x42, 0x83, 0xfc, 0xfc, 0x61})
	f.Fuzz(func(t *testing.T, ops []byte) {
		g := NewGrants(testTTL)
		ref := &refGrants{pending: map[addrspace.Addr]bool{}, grants: map[addrspace.Addr]lock{}}
		var now time.Duration
		for i, op := range ops {
			a := addrspace.Addr(op >> 3 & 3)
			id := radio.NodeID(op>>5&1) + 1
			ballot := uint64(op >> 6)
			switch op & 7 % 5 {
			case 0:
				got := g.Reserve(a, id, ballot, now)
				want := ref.grant(a, id, ballot, now)
				if want {
					ref.pending[a] = true
				}
				if got != want {
					t.Fatalf("op %d Reserve(%d, %d, %d) = %v, reference %v", i, a, id, ballot, got, want)
				}
			case 1:
				if got, want := g.Grant(a, id, ballot, now), ref.grant(a, id, ballot, now); got != want {
					t.Fatalf("op %d Grant(%d, %d, %d) = %v, reference %v", i, a, id, ballot, got, want)
				}
			case 2:
				g.Release(a)
				delete(ref.grants, a)
			case 3:
				g.Close(a, id, ballot)
				delete(ref.pending, a)
				if l, held := ref.grants[a]; held && l.allocator == id && l.ballot == ballot {
					delete(ref.grants, a)
				}
			case 4:
				now += time.Duration(op >> 3)
			}
			for a := addrspace.Addr(0); a < 4; a++ {
				l, ok := g.m[a]
				rl, voted := ref.grants[a]
				if ok != (voted || ref.pending[a]) || l.reserved != ref.pending[a] || l.voted != voted ||
					(voted && (l.allocator != rl.allocator || l.ballot != rl.ballot || l.expires != rl.expires)) {
					t.Fatalf("op %d: address %d holds %+v (present %v), reference vote %+v (held %v) pending %v",
						i, a, l, ok, rl, voted, ref.pending[a])
				}
				if g.Reserved(a) != ref.pending[a] {
					t.Fatalf("op %d: Reserved(%d) = %v, reference %v", i, a, g.Reserved(a), ref.pending[a])
				}
			}
		}
	})
}
