package daemon

// Who a ballot round asks: one voter more than a majority needs on a first
// round, every live peer on a retry.

import (
	"fmt"
	"net/http"
	"slices"
	"testing"
	"time"

	"quorumconf/internal/msg"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// TestVoters: a first round asks every live non-holder and the
// len(roster)/2+1 live replica holders heard from most recently (ties by
// ascending ID); a retried round asks every live peer.
func TestVoters(t *testing.T) {
	const t0 = time.Minute
	// peer is one roster entry besides self (ID 1): seen is how many
	// seconds after t0 it was last heard from, -1 for never.
	type peer struct {
		id           radio.NodeID
		seen         int
		holder, dead bool
	}
	holders := func(seen ...int) []peer {
		out := make([]peer, len(seen))
		for i, s := range seen {
			out[i] = peer{id: radio.NodeID(i + 2), seen: s, holder: true}
		}
		return out
	}
	cases := []struct {
		name      string
		peers     []peer
		attempts  int
		want      []radio.NodeID
		requestor radio.NodeID // 0: self, the owner's own allocation
	}{
		{"full n=3 asks both", holders(1, 2), 1, []radio.NodeID{2, 3}, 0},
		{"full n=4 asks all three", holders(3, 1, 2), 1, []radio.NodeID{2, 3, 4}, 0},
		{"full n=5 asks the three freshest", holders(4, 1, 3, 2), 1, []radio.NodeID{2, 4, 5}, 0},
		{"full n=7 asks the four freshest", holders(6, 1, 5, 2, 4, 3), 1, []radio.NodeID{2, 4, 6, 7}, 0},
		{"never heard from sorts last", holders(1, -1, 2, 3), 1, []radio.NodeID{2, 4, 5}, 0},
		{"the successor is asked however stale", holders(-1, 1, 2, 3), 1, []radio.NodeID{2, 4, 5}, 0},
		{"ties go to the lower ID", holders(1, 1, 1, 1), 1, []radio.NodeID{2, 3, 4}, 0},
		{"retried round asks everyone", holders(4, 1, 3, 2), 2, []radio.NodeID{2, 3, 4, 5}, 0},
		{"no holder flags yet (promoted owner) asks everyone", []peer{{id: 2}, {id: 3}, {id: 4}, {id: 5}}, 1, []radio.NodeID{2, 3, 4, 5}, 0},
		{"bounded target 3 of 5 asks everyone", []peer{
			{id: 2, seen: 1, holder: true}, {id: 3, seen: 2, holder: true}, {id: 4, seen: 3}, {id: 5, seen: 4},
		}, 1, []radio.NodeID{2, 3, 4, 5}, 0},
		{"bounded target 6 of 7 keeps the non-holder", []peer{
			{id: 2, seen: 5, holder: true}, {id: 3, seen: 1, holder: true}, {id: 4, seen: 4, holder: true},
			{id: 5, seen: 3, holder: true}, {id: 6, seen: 2, holder: true}, {id: 7, seen: 0},
		}, 1, []radio.NodeID{2, 4, 5, 6, 7}, 0},
		{"dead members are never asked", []peer{
			{id: 2, seen: 9, holder: true, dead: true}, {id: 3, seen: 1, holder: true}, {id: 4, seen: 2, holder: true}, {id: 5, seen: 3, holder: true},
		}, 1, []radio.NodeID{3, 4, 5}, 0},
		{"dead members still count in the majority", []peer{
			{id: 2, seen: 1, holder: true}, {id: 3, seen: 2, holder: true}, {id: 4, seen: 3, holder: true}, {id: 5, seen: 4, holder: true},
			{id: 6, seen: 5, holder: true}, {id: 7, seen: 6, holder: true, dead: true},
		}, 1, []radio.NodeID{2, 4, 5, 6}, 0},
		{"dead members are not asked on a retry either", []peer{
			{id: 2, seen: 1, holder: true}, {id: 3, seen: 2, holder: true, dead: true}, {id: 4, seen: 3, holder: true}, {id: 5, seen: 4, holder: true},
		}, 3, []radio.NodeID{2, 4, 5}, 0},
		{"the requestor ranks first", holders(4, 1, 3, 2), 1, []radio.NodeID{2, 3, 4}, 3},
		{"the requestor and the successor rank first", holders(4, 1, 2, 3, 6, 5), 1, []radio.NodeID{2, 3, 6, 7}, 3},
		{"a requestor that is the successor", holders(1, 4, 3, 2), 1, []radio.NodeID{2, 3, 4}, 2},
		{"a requestor outside the roster changes nothing", holders(4, 1, 3, 2), 1, []radio.NodeID{2, 4, 5}, 9},
		{"a requestor outside the replica set is asked as a non-holder", []peer{
			{id: 2, seen: 1, holder: true}, {id: 3, seen: 2, holder: true}, {id: 4, seen: 3, holder: true}, {id: 5, seen: 4},
		}, 1, []radio.NodeID{2, 3, 4, 5}, 5},
		{"a retried round asks everyone whoever requested", holders(4, 1, 3, 2), 2, []radio.NodeID{2, 3, 4, 5}, 3},
		{"a dead successor: the next live peer succeeds", []peer{
			{id: 2, seen: 9, holder: true, dead: true}, {id: 3, seen: 1, holder: true}, {id: 4, seen: 2, holder: true}, {id: 5, seen: 3, holder: true},
			{id: 6, seen: 4, holder: true}, {id: 7, seen: 5, holder: true},
		}, 1, []radio.NodeID{3, 5, 6, 7}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := &Daemon{cfg: Config{ID: 1}, roster: []*member{{id: 1}}}
			for _, p := range tc.peers {
				m := &member{id: p.id, holder: p.holder, dead: p.dead}
				if p.seen >= 0 {
					m.lastSeen = t0 + time.Duration(p.seen)*time.Second
				}
				d.roster = append(d.roster, m)
			}
			var got []radio.NodeID
			for _, m := range d.voters(&ballot{attempts: tc.attempts, requestor: tc.requestor}) {
				got = append(got, m.id)
			}
			slices.Sort(got)
			if !slices.Equal(got, tc.want) {
				t.Errorf("voters = %v, want %v", got, tc.want)
			}
		})
	}
}

// round is one ballot round read off an owner's trace ring.
type round struct {
	span  uint64
	retry bool // an earlier round of the same span was opened before it
	asked int  // QUORUM_CLT the round sent
}

// ballotRounds returns, in order, the ballot rounds d opened after the
// event numbered seq. A round's vote requests leave inside propose, right
// after its ballot_open and before any other round can open, so every
// QUORUM_CLT send up to the next ballot_open belongs to it.
func ballotRounds(d *Daemon, seq uint64) []round {
	var out []round
	spans := make(map[uint64]bool)
	for _, e := range d.Trace() {
		switch {
		case e.Seq <= seq:
		case e.Kind == obs.EvBallotOpen:
			out = append(out, round{span: e.Span, retry: spans[e.Span]})
			spans[e.Span] = true
		case e.Kind == obs.EvTransportSend && e.Detail == msg.TQuorumClt && len(out) > 0:
			out[len(out)-1].asked++
		}
	}
	return out
}

// lastSeq is the number of the newest event in d's trace ring.
func lastSeq(d *Daemon) uint64 {
	events := d.Trace()
	if len(events) == 0 {
		return 0
	}
	return events[len(events)-1].Seq
}

// TestFirstRoundAsksOneMoreThanAMajority: on a healthy fleet every ballot
// is decided in its first round, which sends QUORUM_CLT to one voter more
// than the owner's own vote needs for a majority — 3 of 4 peers on five
// daemons, both peers on three — and daemon.votes_asked counts them.
func TestFirstRoundAsksOneMoreThanAMajority(t *testing.T) {
	for _, tc := range []struct{ n, asked int }{{5, 3}, {3, 2}} {
		t.Run(fmt.Sprintf("%d daemons", tc.n), func(t *testing.T) { firstRoundAsks(t, tc.n, tc.asked) })
	}
}

// firstRoundAsks allocates on an n-daemon fleet and checks that every
// ballot round the owner opened was a first round asking want voters.
func firstRoundAsks(t *testing.T, n, want int) {
	ds := newCluster(t, n, func(c *Config) {
		c.TraceRing = 1 << 14
		c.SuspectAfter = 30 * time.Second
	})
	waitFormed(t, ds)
	owner := ds[0]
	seq := lastSeq(owner)
	asked0, ballots0 := counter(owner, "daemon.votes_asked"), counter(owner, "daemon.ballots")

	const allocs = 10
	for i := 0; i < allocs; i++ {
		if _, code := allocate(t, ds[i%n]); code != http.StatusOK {
			t.Fatalf("allocate %d at daemon %d: HTTP %d", i, ds[i%n].ID(), code)
		}
	}
	rounds := ballotRounds(owner, seq)
	if len(rounds) != allocs {
		t.Errorf("%d ballot rounds for %d allocations: %+v", len(rounds), allocs, rounds)
	}
	for _, r := range rounds {
		if r.retry || r.asked != want {
			t.Errorf("round %+v, want a first round asking %d", r, want)
		}
	}
	asked, ballots := counter(owner, "daemon.votes_asked")-asked0, counter(owner, "daemon.ballots")-ballots0
	if asked != int64(want)*ballots {
		t.Errorf("daemon.votes_asked rose by %d over %d ballots, want %d each", asked, ballots, want)
	}
}

// TestOneSilentVoterCostsNoTimeout: a crashed member the failure detector
// has not caught yet may be among the voters a first round asks, and the
// spare voter makes up for it: no round waits out QuorumTimeout.
func TestOneSilentVoterCostsNoTimeout(t *testing.T) {
	ds := newCluster(t, 5, func(c *Config) {
		c.SuspectAfter = time.Minute // longer than the test: the crash stays undetected
		c.HealthInterval = -1
	})
	waitFormed(t, ds)
	owner := ds[0]
	ds[4].Kill()
	for i := 0; i < 20; i++ {
		d := ds[i%4]
		if _, code := allocate(t, d); code != http.StatusOK {
			t.Fatalf("allocate %d at daemon %d: HTTP %d", i, d.ID(), code)
		}
	}
	if n := counter(owner, "daemon.ballot_timeouts"); n != 0 {
		t.Errorf("daemon.ballot_timeouts = %d with one silent voter, want 0", n)
	}
}

// TestRetriedRoundAsksEveryone: when the voters a first round asked cannot
// make a majority, the round times out and the retry asks every live peer,
// which does.
func TestRetriedRoundAsksEveryone(t *testing.T) {
	ds := newCluster(t, 5, func(c *Config) {
		c.TraceRing = 1 << 14
		c.SuspectAfter = time.Minute // longer than the test: the crashes stay undetected
		c.HealthInterval = -1
		c.QuorumTimeout = 150 * time.Millisecond
	})
	waitFormed(t, ds)
	owner := ds[0]
	ds[3].Kill()
	ds[4].Kill()
	// Make the two crashed voters the most recently heard at the owner, so
	// that every first round asks both of them and only one live voter.
	onLoopSync(t, owner, func() {
		for _, id := range []radio.NodeID{4, 5} {
			owner.member(id).lastSeen = owner.now() + time.Hour
		}
	})
	seq := lastSeq(owner)

	for i := 0; i < 3; i++ {
		if _, code := allocate(t, owner); code != http.StatusOK {
			t.Fatalf("allocate %d with two silent voters: HTTP %d", i, code)
		}
	}
	if n := counter(owner, "daemon.ballot_timeouts"); n < 1 {
		t.Errorf("daemon.ballot_timeouts = %d, want at least 1", n)
	}
	var retries int
	for _, r := range ballotRounds(owner, seq) {
		want := 3
		if r.retry {
			want = 4
			retries++
		}
		if r.asked != want {
			t.Errorf("round %+v asked %d voters, want %d", r, r.asked, want)
		}
	}
	if retries < 3 {
		t.Errorf("%d retried rounds for 3 allocations, want at least 3", retries)
	}
}
