package daemon

// End-to-end observability harness: causal spans reconstructed across a
// real UDP fleet with batching enabled, the /v1/trace filters, the ring
// under concurrent readers, and the /v1/metrics histogram contract.

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// fetchTrace GETs /v1/trace with the given query ("" or "?kind=...") and
// decodes the events, failing the test on a non-200 answer.
func fetchTrace(t *testing.T, d *Daemon, query string) []obs.Event {
	t.Helper()
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/trace" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/v1/trace%s: status %d: %s", query, resp.StatusCode, body)
	}
	var v TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v.Events
}

// TestAllocationSpanAcrossFleet reconstructs one allocation's full causal
// span — request, ballot, votes, grant — from the trace rings of a real
// three-daemon fleet over UDP with frame batching enabled. The allocation
// is driven through a member so the chain genuinely crosses nodes: the
// request and grant land on the member's ring, the ballot on the owner's,
// and the vote casts on the voters'. All tracers share one clock epoch, so
// the stitched timeline must be monotone hop to hop under a single trace
// ID.
func TestAllocationSpanAcrossFleet(t *testing.T) {
	epoch := time.Now()
	clock := func() time.Duration { return time.Since(epoch) }
	tracers := make(map[radio.NodeID]*obs.Tracer)
	ds := newCluster(t, 3, func(c *Config) {
		c.BatchFlushBytes = 16 * 1024
		tr := obs.NewTracer(clock)
		tracers[c.ID] = tr
		c.Tracer = tr
	})
	// Start aims each tracer at its own process epoch; restore the shared
	// clock so hop timestamps are comparable across daemons.
	for _, tr := range tracers {
		tr.SetClock(clock)
	}
	waitFor(t, 20*time.Second, "cluster formation", func() bool {
		for _, d := range ds {
			if v, err := tryStatus(d); err != nil || !v.Joined {
				return false
			}
		}
		return true
	})

	// Allocate through member 2: it forwards a COM_REQ to the owner, which
	// runs the quorum ballot and grants back.
	av, code := allocate(t, ds[1])
	if code != http.StatusOK {
		t.Fatalf("allocate via member: status %d", code)
	}

	var all []obs.Event
	for _, d := range ds {
		all = append(all, fetchTrace(t, d, "")...)
	}
	spans := obs.BuildSpans(all)
	var tl *obs.SpanTimeline
	for i := range spans {
		for _, hop := range spans[i].Hops {
			if hop.Event.Kind == obs.EvAllocGrant && hop.Event.Addr.String() == av.Addr {
				tl = &spans[i]
			}
		}
	}
	if tl == nil {
		t.Fatalf("no span timeline carries the granted address %s", av.Addr)
	}
	if tl.Origin() != ds[1].ID() {
		t.Errorf("span origin = node %d, want the requesting member %d", tl.Origin(), ds[1].ID())
	}

	kinds := make(map[obs.EventKind]int)
	nodes := make(map[radio.NodeID]bool)
	for i, hop := range tl.Hops {
		kinds[hop.Event.Kind]++
		nodes[hop.Event.Node] = true
		if i > 0 && hop.SincePrev < 0 {
			t.Errorf("hop %d (%s on node %d) is %dµs before its predecessor",
				i, hop.Event.Kind, hop.Event.Node, -hop.SincePrev)
		}
	}
	if tl.Hops[0].Event.Kind != obs.EvAllocRequest {
		t.Errorf("first hop = %s, want alloc_request", tl.Hops[0].Event.Kind)
	}
	if last := tl.Hops[len(tl.Hops)-1].Event.Kind; last != obs.EvAllocGrant {
		t.Errorf("last hop = %s, want alloc_grant", last)
	}
	for _, k := range []obs.EventKind{obs.EvAllocRequest, obs.EvBallotOpen, obs.EvBallotVote, obs.EvBallotCommit, obs.EvAllocGrant} {
		if kinds[k] == 0 {
			t.Errorf("span timeline is missing a %s hop: %+v", k, kinds)
		}
	}
	if len(nodes) < 3 {
		t.Errorf("span events came from %d nodes, want all 3 (requestor, owner, voter)", len(nodes))
	}
}

// TestTraceSpanFilterComposesWithKind pins the /v1/trace query contract:
// ?span= narrows to one causal chain, composes with ?kind=, and a
// malformed span answers 400.
func TestTraceSpanFilterComposesWithKind(t *testing.T) {
	ds := newCluster(t, 3)
	waitFor(t, 20*time.Second, "cluster formation", func() bool {
		for _, d := range ds {
			if v, err := tryStatus(d); err != nil || !v.Joined {
				return false
			}
		}
		return true
	})
	if _, code := allocate(t, ds[0]); code != http.StatusOK {
		t.Fatalf("allocate: status %d", code)
	}

	owner := ds[0]
	var span uint64
	for _, e := range fetchTrace(t, owner, "") {
		if e.Kind == obs.EvAllocGrant && e.Span != 0 {
			span = e.Span
		}
	}
	if span == 0 {
		t.Fatal("no spanned alloc_grant in the owner's ring")
	}
	hex := obs.FormatSpan(span)

	spanned := fetchTrace(t, owner, "?span="+hex)
	if len(spanned) == 0 {
		t.Fatal("?span= filter returned nothing")
	}
	for _, e := range spanned {
		if e.Span != span {
			t.Errorf("?span=%s returned event with span %s", hex, obs.FormatSpan(e.Span))
		}
	}

	composed := fetchTrace(t, owner, "?kind=ballot_commit&span="+hex)
	if len(composed) == 0 {
		t.Fatal("?kind=&span= composition returned nothing")
	}
	for _, e := range composed {
		if e.Kind != obs.EvBallotCommit || e.Span != span {
			t.Errorf("composed filter leaked event %s span %s", e.Kind, obs.FormatSpan(e.Span))
		}
	}
	if len(composed) >= len(spanned) {
		t.Errorf("composition did not narrow: %d kind+span vs %d span-only", len(composed), len(spanned))
	}

	resp, err := http.Get("http://" + owner.HTTPAddr() + "/v1/trace?span=not-hex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed span filter: status %d, want 400", resp.StatusCode)
	}
}

// TestTraceConcurrentWithWriters hammers /v1/trace from several readers
// while the daemon allocates (emitting into the ring from the event
// loop); under -race this pins that ring snapshots never tear against
// concurrent writes.
func TestTraceConcurrentWithWriters(t *testing.T) {
	ds := newCluster(t, 3)
	waitFor(t, 20*time.Second, "cluster formation", func() bool {
		for _, d := range ds {
			if v, err := tryStatus(d); err != nil || !v.Joined {
				return false
			}
		}
		return true
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get("http://" + ds[0].HTTPAddr() + "/v1/trace")
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, code := allocate(t, ds[0]); code != http.StatusOK {
			t.Errorf("allocation %d under trace load: status %d", i, code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestMetricsHistogramMatchesAllocations pins the /v1/metrics histogram
// contract on the owner: the bootstrap owner never joins, so its
// config-latency observation count equals exactly its completed
// /v1/allocate calls, the ballot RTT histogram has at least one
// observation per committed ballot, and the transport's ack round trips —
// what its retransmission timer is derived from — are exported too.
func TestMetricsHistogramMatchesAllocations(t *testing.T) {
	ds := newCluster(t, 3)
	waitFor(t, 20*time.Second, "cluster formation", func() bool {
		for _, d := range ds {
			if v, err := tryStatus(d); err != nil || !v.Joined {
				return false
			}
		}
		return true
	})

	const n = 5
	for i := 0; i < n; i++ {
		if _, code := allocate(t, ds[0]); code != http.StatusOK {
			t.Fatalf("allocation %d: status %d", i, code)
		}
	}

	resp, err := http.Get("http://" + ds[0].HTTPAddr() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	count := promSample(t, text, "quorumd_config_latency_seconds_count")
	if count != n {
		t.Errorf("config latency observations = %d, want %d (one per completed /v1/allocate)", count, n)
	}
	if !strings.Contains(text, "# TYPE quorumd_config_latency_seconds histogram") {
		t.Error("config latency histogram TYPE line missing")
	}
	if !strings.Contains(text, `quorumd_config_latency_seconds_bucket{le="+Inf"} `+strconv.Itoa(n)) {
		t.Errorf("+Inf bucket should equal the observation count %d:\n%s", n, text)
	}
	if rtt := promSample(t, text, "quorumd_ballot_rtt_seconds_count"); rtt < n {
		t.Errorf("ballot RTT observations = %d, want >= %d (one per committed ballot)", rtt, n)
	}
	if !strings.Contains(text, "# TYPE quorumd_transport_rtt_seconds histogram") {
		t.Error("transport RTT histogram TYPE line missing")
	}
	// Every allocation makes the owner send at least one frame; the exact
	// sample count (Karn's rule) is pinned in udptransport's own tests.
	if samples := promSample(t, text, "quorumd_transport_rtt_seconds_count"); samples < n {
		t.Errorf("transport RTT samples = %d, want >= %d", samples, n)
	}
}

// promSample extracts one bare sample value from a Prometheus text
// exposition, failing the test if the series is absent.
func promSample(t *testing.T, text, name string) int {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				t.Fatalf("sample %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("series %s not found in exposition:\n%s", name, text)
	return 0
}
