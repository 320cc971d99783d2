package health

import (
	"testing"
	"time"

	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

var t0 = time.Unix(1700000000, 0)

// peers builds a healthy n-member electorate view where the first holders
// members hold fresh replicas acked at t0.
func peers(n, holders int) []PeerState {
	out := make([]PeerState, n)
	for i := range out {
		out[i] = PeerState{ID: radio.NodeID(i + 2)}
		if i < holders {
			out[i].Holder = true
			out[i].AckedAt = t0
		}
	}
	return out
}

func ids(ps []radio.NodeID) []int {
	out := make([]int, len(ps))
	for i, p := range ps {
		out[i] = int(p)
	}
	return out
}

func eqIDs(got []radio.NodeID, want ...int) bool {
	if len(got) != len(want) {
		return false
	}
	for i, id := range got {
		if int(id) != want[i] {
			return false
		}
	}
	return true
}

func TestHealthyClusterAtTarget(t *testing.T) {
	m := New(Config{Target: 3, TTL: time.Second}, nil)
	c := m.Evaluate(t0.Add(100*time.Millisecond), 1, peers(4, 2))
	if c.Factor != 3 || c.Target != 3 || c.Under {
		t.Fatalf("healthy check = %+v, want rf 3/3", c)
	}
	if len(c.Refresh) != 0 {
		t.Fatalf("healthy check re-syncs fresh holders: %v", ids(c.Refresh))
	}
}

func TestRefreshAtHalfLife(t *testing.T) {
	m := New(Config{Target: 3, TTL: time.Second}, nil)
	c := m.Evaluate(t0.Add(600*time.Millisecond), 1, peers(4, 2))
	if c.Factor != 3 || c.Under {
		t.Fatalf("half-life check = %+v, want still rf 3/3", c)
	}
	if !eqIDs(c.Refresh, 2, 3) {
		t.Fatalf("Refresh = %v, want both aging holders", ids(c.Refresh))
	}
}

func TestExpiredLeaseDropsFactor(t *testing.T) {
	m := New(Config{Target: 3, TTL: time.Second}, nil)
	c := m.Evaluate(t0.Add(2*time.Second), 1, peers(4, 2))
	if c.Factor != 1 || !c.Under {
		t.Fatalf("expired check = %+v, want rf 1/3 under", c)
	}
	if !eqIDs(c.Refresh, 2, 3) {
		t.Fatalf("Refresh = %v, want expired holders re-synced", ids(c.Refresh))
	}
}

// TestDeadHolderDropsFactor: a dead holder stops counting at once, and is
// not re-synced. Demoting it is the owner's designation rule's job.
func TestDeadHolderDropsFactor(t *testing.T) {
	m := New(Config{Target: 3, TTL: time.Second}, nil)
	ps := peers(4, 2)
	ps[1].Dead = true // holder 3 dies
	c := m.Evaluate(t0.Add(600*time.Millisecond), 1, ps)
	if c.Factor != 2 || c.Target != 3 || !c.Under {
		t.Fatalf("dead-holder check = %+v, want rf 2/3 under", c)
	}
	if !eqIDs(c.Refresh, 2) {
		t.Fatalf("Refresh = %v, want only the live aging holder", ids(c.Refresh))
	}
}

func TestDeadNonHolderShrinksNothing(t *testing.T) {
	m := New(Config{Target: 3, TTL: time.Second}, nil)
	ps := peers(4, 2)
	ps[3].Dead = true // non-holder 5 dies
	c := m.Evaluate(t0.Add(100*time.Millisecond), 1, ps)
	if c.Factor != 3 || c.Target != 3 || c.Under {
		t.Fatalf("dead non-holder check = %+v, want untouched rf 3/3", c)
	}
}

func TestTargetCappedAtLiveMembership(t *testing.T) {
	m := New(Config{Target: 5, TTL: time.Second}, nil)
	ps := peers(2, 2)
	c := m.Evaluate(t0.Add(100*time.Millisecond), 1, ps)
	if c.Target != 3 {
		t.Fatalf("target = %d with 2 live members, want capped 3", c.Target)
	}
	if c.Under {
		t.Fatalf("check = %+v: full live replication cannot be under target", c)
	}
}

func TestFullReplicationTracksMembership(t *testing.T) {
	m := New(Config{Target: 0, TTL: time.Second}, nil)
	ps := peers(3, 3)
	if c := m.Evaluate(t0.Add(time.Millisecond), 1, ps); c.Target != 4 || c.Under {
		t.Fatalf("full-mode check = %+v, want rf 4/4", c)
	}
	ps[2].Dead = true
	// A death shrinks factor and target together: full replication over the
	// survivors is still full.
	if c := m.Evaluate(t0.Add(2*time.Millisecond), 1, ps); c.Target != 3 || c.Factor != 3 || c.Under {
		t.Fatalf("full-mode check after death = %+v, want rf 3/3", c)
	}
}

func TestNeverAckedHolderIsRefreshedNotCounted(t *testing.T) {
	m := New(Config{Target: 2, TTL: time.Second}, nil)
	ps := []PeerState{{ID: 2, Holder: true}} // designated, never acked
	c := m.Evaluate(t0, 1, ps)
	if c.Factor != 1 || !c.Under {
		t.Fatalf("check = %+v, want rf 1/2 under", c)
	}
	if !eqIDs(c.Refresh, 2) {
		t.Fatalf("Refresh = %v, want the silent holder pushed again", ids(c.Refresh))
	}
}

// TestEventEdges drives the full arc — healthy, holder death, recovery —
// and asserts the monitor emits health_check on movement and the
// under/restored pair exactly once per crossing.
func TestEventEdges(t *testing.T) {
	ring := obs.NewRing(64)
	tr := obs.NewTracer(func() time.Duration { return 0 }, ring)
	m := New(Config{Target: 3, TTL: time.Second}, tr)

	ps := peers(4, 2)
	now := t0.Add(time.Millisecond)
	m.Evaluate(now, 1, ps) // first check: health_check
	m.Evaluate(now, 1, ps) // unchanged: silent

	ps[0].Dead = true // holder 2 dies
	c := m.Evaluate(now, 1, ps)
	if !c.Under {
		t.Fatalf("check = %+v, want under", c)
	}
	m.Evaluate(now, 1, ps) // still under: no second underreplicated event

	// Recovery: the recruit (node 4) acked its replica.
	ps[0].Holder = false
	ps[2].Holder = true
	ps[2].AckedAt = now
	if c := m.Evaluate(now.Add(time.Millisecond), 1, ps); c.Factor != 3 || c.Target != 3 || c.Under {
		t.Fatalf("check = %+v, want restored to rf 3/3", c)
	}

	var kinds []string
	for _, e := range ring.Snapshot() {
		kinds = append(kinds, e.Kind.String())
		if e.Node != 1 {
			t.Fatalf("event %+v not attributed to the owner", e)
		}
	}
	want := []string{
		"health_check",            // first check rf=3/3
		"health_check",            // drop to rf=2/3
		"replica_underreplicated", // edge down
		"health_check",            // recovery to rf=3/3
		"replica_restored",        // edge up
	}
	if len(kinds) != len(want) {
		t.Fatalf("events = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events = %v, want %v", kinds, want)
		}
	}
}
