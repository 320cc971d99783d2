package daemon

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// newSoloOwner boots a single bootstrap daemon with HTTP enabled.
func newSoloOwner(t *testing.T) *Daemon {
	t.Helper()
	cfg := Config{
		ID:         1,
		Space:      testSpace,
		Bootstrap:  true,
		Listen:     "127.0.0.1:0",
		HTTPListen: "127.0.0.1:0",
		Logf:       t.Logf,
	}
	fastTimings(&cfg)
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Kill)
	waitFor(t, 10*time.Second, "solo owner to join", func() bool {
		v, err := tryStatus(d)
		return err == nil && v.Joined
	})
	return d
}

// TestUnversionedRoutesGone: the pre-v1 paths are not routed.
func TestUnversionedRoutesGone(t *testing.T) {
	d := newSoloOwner(t)
	for _, path := range []string{"/status", "/allocate", "/metrics"} {
		resp, err := http.Get("http://" + d.HTTPAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: HTTP %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestAllocateErrorPaths drives the handler's failure branches: malformed
// body, unknown node, and allocation during drain.
func TestAllocateErrorPaths(t *testing.T) {
	d := newSoloOwner(t)
	url := "http://" + d.HTTPAddr() + "/v1/allocate"

	post := func(body string) (int, ErrorResponse) {
		t.Helper()
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}

	if code, e := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed body: HTTP %d (%q), want 400", code, e.Error)
	}
	if code, e := post(`{"node": 99}`); code != http.StatusNotFound {
		t.Errorf("unknown node: HTTP %d (%q), want 404", code, e.Error)
	} else if !strings.Contains(e.Error, "99") {
		t.Errorf("unknown-node error %q does not name the node", e.Error)
	}
	// Well-formed requests still work, for self both implicitly and by ID.
	if code, e := post(""); code != http.StatusOK {
		t.Errorf("empty-body allocate: HTTP %d (%q), want 200", code, e.Error)
	}
	if code, e := post(`{"node": 1}`); code != http.StatusOK {
		t.Errorf("self-node allocate: HTTP %d (%q), want 200", code, e.Error)
	}

	d.Drain()
	if !d.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if code, e := post(""); code != http.StatusServiceUnavailable {
		t.Errorf("allocate while draining: HTTP %d (%q), want 503", code, e.Error)
	}
	// Reads keep working during drain.
	if v := getStatus(t, d); !v.Draining {
		t.Errorf("status.draining = false during drain")
	}
}

// TestV1MetricsPrometheus: /v1/metrics serves the text exposition format.
func TestV1MetricsPrometheus(t *testing.T) {
	d := newSoloOwner(t)
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"# TYPE quorumd_daemon_bootstrap counter",
		"quorumd_daemon_bootstrap 1",
		"quorumd_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestV1Trace: the ring is served over HTTP in the stable JSON schema, and
// the kind filter narrows it.
func TestV1Trace(t *testing.T) {
	d := newSoloOwner(t)
	get := func(path string) TraceResponse {
		t.Helper()
		resp, err := http.Get("http://" + d.HTTPAddr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var tr TraceResponse
		if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
			t.Fatalf("decode %s: %v", path, err)
		}
		return tr
	}

	all := get("/v1/trace")
	if len(all.Events) == 0 {
		t.Fatal("no events after bootstrap")
	}
	kinds := make(map[obs.EventKind]bool)
	var lastSeq uint64
	for _, e := range all.Events {
		kinds[e.Kind] = true
		if e.Seq <= lastSeq {
			t.Fatalf("ring not seq-ordered: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
	}
	for _, want := range []obs.EventKind{obs.EvDaemonStart, obs.EvHeadElected, obs.EvNodeConfigured} {
		if !kinds[want] {
			t.Errorf("trace missing %v; kinds seen: %v", want, kinds)
		}
	}

	filtered := get("/v1/trace?kind=head_elected")
	if len(filtered.Events) != 1 || filtered.Events[0].Kind != obs.EvHeadElected {
		t.Errorf("kind filter returned %+v, want exactly one head_elected", filtered.Events)
	}
}

// assertEventOrder checks that the kinds (each constrained to the given
// peer, 0 = any) appear as an ordered subsequence of events.
func assertEventOrder(t *testing.T, events []obs.Event, peer radio.NodeID, kinds ...obs.EventKind) {
	t.Helper()
	i := 0
	for _, e := range events {
		if i < len(kinds) && e.Kind == kinds[i] && (peer == 0 || e.Peer == peer) {
			i++
		}
	}
	if i != len(kinds) {
		var seen []string
		for _, e := range events {
			seen = append(seen, e.Kind.String())
		}
		t.Fatalf("event sequence stopped at %d/%d (%v); ring: %v", i, len(kinds), kinds[i], seen)
	}
}

// TestCrashReclaimEventSequence is the observability half of the lifecycle
// harness: five daemons form a cluster, one crashes, and the owner's trace
// ring must show the causal chain heartbeat-miss -> reclamation open ->
// quorum-committed frees -> replica resync, in that order.
func TestCrashReclaimEventSequence(t *testing.T) {
	ds := newCluster(t, 5)
	owner, victim := ds[0], ds[4]

	waitFor(t, 30*time.Second, "cluster formation", func() bool {
		for _, d := range ds {
			v, err := tryStatus(d)
			if err != nil || !v.Joined || !electorateIs(v, 1, 2, 3, 4, 5) {
				return false
			}
		}
		return true
	})
	if _, code := allocate(t, victim); code != http.StatusOK {
		t.Fatalf("pre-crash allocate on victim: HTTP %d", code)
	}

	victim.Kill()
	waitFor(t, 30*time.Second, "reclamation to converge", func() bool {
		v, err := tryStatus(owner)
		return err == nil && electorateIs(v, 1, 2, 3, 4)
	})

	victimID := victim.ID()
	assertEventOrder(t, owner.Trace(), victimID,
		obs.EvPeerDead, obs.EvReclaimStart, obs.EvReclaimFree)
	// The post-reclaim replica resync follows the frees.
	assertEventOrder(t, owner.Trace(), 0,
		obs.EvReclaimFree, obs.EvReplicaSync)

	// The same ring is visible over the wire, and the dead peer's events
	// survive the JSON round trip with their peer attribution.
	resp, err := http.Get("http://" + owner.HTTPAddr() + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	assertEventOrder(t, tr.Events, victimID,
		obs.EvPeerDead, obs.EvReclaimStart, obs.EvReclaimFree)
}

// TestV1TraceThroughputKinds: the allocation-throughput event kinds
// (ballot_pipelined, frame_batched, vote_cache_hit/invalidate) are
// addressable through the kind filter — resolution goes through
// obs.KindByName, so adding a kind to obs is all a deployment needs to
// filter on it, and a typo is still a 400.
func TestV1TraceThroughputKinds(t *testing.T) {
	d := newSoloOwner(t)
	for _, kind := range []string{
		"ballot_pipelined", "frame_batched", "vote_cache_hit", "vote_cache_invalidate",
	} {
		resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/trace?kind=" + kind)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("kind=%s: status %d, want 200", kind, resp.StatusCode)
		}
	}
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/trace?kind=vote_cache_miss")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d, want 400", resp.StatusCode)
	}
}
