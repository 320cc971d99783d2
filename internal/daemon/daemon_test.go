package daemon

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/radio"
	"quorumconf/internal/transport/udptransport"
)

// testSpace is 10.0.0.1 - 10.0.0.64.
var testSpace = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A000040}

// fastTimings shrinks every protocol interval so the full lifecycle —
// join, allocate, crash, reclaim — fits a test run even under -race.
func fastTimings(cfg *Config) {
	cfg.HeartbeatInterval = 60 * time.Millisecond
	cfg.SuspectAfter = 350 * time.Millisecond
	cfg.QuorumTimeout = 400 * time.Millisecond
	cfg.ReclaimSettle = 200 * time.Millisecond
	cfg.JoinRetry = 120 * time.Millisecond
	cfg.AllocTimeout = 8 * time.Second
	cfg.RetryBase = 10 * time.Millisecond
}

// newCluster boots n daemons on loopback with ephemeral ports and wires the
// full peer mesh. Daemon 1 bootstraps; daemon 3 (when present) is seeded
// only through daemon 2, so its join exercises the AGENT_FWD relay path.
// Optional mutators adjust each Config after fastTimings.
func newCluster(t *testing.T, n int, mutate ...func(*Config)) []*Daemon {
	t.Helper()
	daemons := make([]*Daemon, n)
	for i := 0; i < n; i++ {
		id := radio.NodeID(i + 1)
		cfg := Config{
			ID:         id,
			Space:      testSpace,
			Bootstrap:  i == 0,
			Listen:     "127.0.0.1:0",
			HTTPListen: "127.0.0.1:0",
			Logf:       t.Logf,
		}
		fastTimings(&cfg)
		for _, m := range mutate {
			m(&cfg)
		}
		switch {
		case i == 0:
			// bootstrap: no seeds
		case id == 3:
			cfg.Seeds = []radio.NodeID{2, 1} // join through a relay first
		default:
			cfg.Seeds = []radio.NodeID{1}
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Kill)
		daemons[i] = d
	}
	for _, a := range daemons {
		for _, b := range daemons {
			if a == b {
				continue
			}
			if err := a.AddPeer(b.ID(), b.UDPAddr().String()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return daemons
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func getStatus(t *testing.T, d *Daemon) StatusResponse {
	t.Helper()
	v, err := tryStatus(d)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func tryStatus(d *Daemon) (StatusResponse, error) {
	resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/status")
	if err != nil {
		return StatusResponse{}, err
	}
	defer resp.Body.Close()
	var v StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return StatusResponse{}, err
	}
	return v, nil
}

func allocate(t *testing.T, d *Daemon) (AllocateResponse, int) {
	t.Helper()
	resp, err := http.Post("http://"+d.HTTPAddr()+"/v1/allocate", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v AllocateResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func electorateIs(v StatusResponse, want ...int) bool {
	if len(v.Electorate) != len(want) {
		return false
	}
	for i, id := range want {
		if v.Electorate[i] != id {
			return false
		}
	}
	return true
}

// TestFiveDaemonLifecycle is the end-to-end harness the daemon exists for:
// five daemons boot on loopback, form one network, serve allocations over
// HTTP, survive the crash of a member, and reclaim everything it held.
func TestFiveDaemonLifecycle(t *testing.T) {
	ds := newCluster(t, 5)
	owner := ds[0]

	// Phase 1: the cluster forms. Every daemon joins, the electorate
	// reaches all five, and all agree on the same network ID.
	waitFor(t, 30*time.Second, "cluster formation", func() bool {
		for _, d := range ds {
			v, err := tryStatus(d)
			if err != nil || !v.Joined || !electorateIs(v, 1, 2, 3, 4, 5) {
				return false
			}
		}
		return true
	})
	checkRoster(t, "formation", ds...)
	ownerView := getStatus(t, owner)
	if ownerView.Role != "owner" {
		t.Fatalf("daemon 1 role = %q, want owner", ownerView.Role)
	}
	for _, d := range ds[1:] {
		v := getStatus(t, d)
		if v.Role != "member" {
			t.Errorf("daemon %d role = %q, want member", v.ID, v.Role)
		}
		if v.NetworkID != ownerView.NetworkID {
			t.Errorf("daemon %d network %q != owner's %q", v.ID, v.NetworkID, ownerView.NetworkID)
		}
	}
	// Five self-IPs are occupied; daemon 3 joined through daemon 2's relay.
	if ownerView.Occupied != 5 {
		t.Errorf("occupied = %d after formation, want 5", ownerView.Occupied)
	}

	// Phase 2: allocate through the HTTP API — twice on the daemon we are
	// about to kill (id 5), once on a survivor (id 2), once on the owner.
	got := make(map[string]int) // addr -> serving daemon id
	for _, c := range []struct {
		d *Daemon
		n int
	}{{ds[4], 2}, {ds[1], 1}, {ds[0], 1}} {
		for i := 0; i < c.n; i++ {
			v, code := allocate(t, c.d)
			if code != http.StatusOK {
				t.Fatalf("allocate on daemon %d: HTTP %d", c.d.ID(), code)
			}
			if !testSpace.Contains(addrspace.Addr(v.Value)) {
				t.Fatalf("allocated %s outside space", v.Addr)
			}
			if prev, dup := got[v.Addr]; dup {
				t.Fatalf("address %s allocated twice (daemons %d and %d)", v.Addr, prev, c.d.ID())
			}
			got[v.Addr] = int(c.d.ID())
		}
	}
	waitFor(t, 10*time.Second, "allocations visible at owner", func() bool {
		v, err := tryStatus(owner)
		return err == nil && v.Occupied == 9 // 5 selves + 4 leases
	})
	checkRoster(t, "allocation", ds...)

	// Phase 3: kill daemon 5 without ceremony. It held its self IP and two
	// leases; daemon 2's lease must survive reclamation.
	victimIP := getStatus(t, ds[4]).IP
	ds[4].Kill()
	checkRoster(t, "crash", ds[:4]...)

	waitFor(t, 30*time.Second, "reclamation to converge", func() bool {
		v, err := tryStatus(owner)
		if err != nil || !electorateIs(v, 1, 2, 3, 4) {
			return false
		}
		return v.Occupied == 6 // victim's self IP + its 2 leases freed
	})
	final := getStatus(t, owner)
	for addr, holder := range final.Holders {
		if holder == 5 {
			t.Errorf("address %s still attributed to dead daemon 5", addr)
		}
	}
	if _, stale := final.Holders[victimIP]; stale {
		t.Errorf("victim self IP %s still held after reclamation", victimIP)
	}
	for addr, servedBy := range got {
		_, held := final.Holders[addr]
		if servedBy == 5 && held {
			t.Errorf("lease %s of dead daemon survived reclamation", addr)
		}
		if servedBy != 5 && !held {
			t.Errorf("lease %s of live daemon %d was reclaimed", addr, servedBy)
		}
	}

	// The survivors converge on the shrunken electorate too.
	waitFor(t, 15*time.Second, "survivors to adopt the new electorate", func() bool {
		for _, d := range ds[:4] {
			v, err := tryStatus(d)
			if err != nil || !electorateIs(v, 1, 2, 3, 4) {
				return false
			}
		}
		return true
	})
	checkRoster(t, "reclamation", ds[:4]...)

	// Phase 4: the shrunken cluster still allocates.
	v, code := allocate(t, ds[3])
	if code != http.StatusOK {
		t.Fatalf("post-reclaim allocate: HTTP %d", code)
	}
	if _, dup := got[v.Addr]; dup && got[v.Addr] != 5 {
		t.Errorf("post-reclaim allocation %s collides with a live lease", v.Addr)
	}

	if n := owner.Metrics().Snapshot().Counter("daemon.reclaims"); n < 1 {
		t.Errorf("owner ran %d reclamations, want >= 1", n)
	}
}

// TestStatusAndAllocateBeforeJoin: a daemon whose seeds never answer serves
// /v1/status as "joining", refuses /v1/allocate, and has no pool occupancy to
// report on /v1/metrics.
func TestStatusAndAllocateBeforeJoin(t *testing.T) {
	cfg := Config{
		ID:         7,
		Space:      testSpace,
		Seeds:      []radio.NodeID{1},
		Listen:     "127.0.0.1:0",
		HTTPListen: "127.0.0.1:0",
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

	v := getStatus(t, d)
	if v.Role != "joining" || v.Joined {
		t.Errorf("unjoined daemon status = %+v", v)
	}
	if _, code := allocate(t, d); code != http.StatusConflict {
		t.Errorf("allocate before join: HTTP %d, want %d", code, http.StatusConflict)
	}
	if occ, free, present := occupancyGauges(t, d); present {
		t.Errorf("unjoined daemon reports %d occupied / %d free", occ, free)
	}
	if resp, err := http.Get("http://" + d.HTTPAddr() + "/v1/allocate"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/allocate: HTTP %d, want 405", resp.StatusCode)
		}
	}
}

// TestMetricsEndpoint: /v1/metrics exposes transport and daemon counters.
func TestMetricsEndpoint(t *testing.T) {
	ds := newCluster(t, 2)
	waitFor(t, 20*time.Second, "two-daemon formation", func() bool {
		v, err := tryStatus(ds[1])
		return err == nil && v.Joined
	})
	resp, err := http.Get("http://" + ds[0].HTTPAddr() + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"quorumd_daemon_joins", "quorumd_transport_delivered"} {
		if promSample(t, string(body), name) < 1 {
			t.Errorf("owner metrics carry no positive %s:\n%s", name, body)
		}
	}
}

// TestConfigValidation rejects configurations that cannot form a cluster.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"zero id", Config{Space: testSpace, Bootstrap: true}, "ID"},
		{"tiny space", Config{ID: 1, Space: addrspace.Block{Lo: 5, Hi: 5}, Bootstrap: true}, "space"},
		{"no seeds", Config{ID: 2, Space: testSpace}, "seed"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := New(c.cfg); err == nil {
				t.Errorf("config %+v accepted", c.cfg)
			} else if !strings.Contains(strings.ToLower(err.Error()), strings.ToLower(c.want)) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestKillWithFullQueue: Kill does not block on a full event queue, whose
// loop is awake anyway, and once the loop has seen the kill no queued event
// starts.
func TestKillWithFullQueue(t *testing.T) {
	d := newCluster(t, 1)[0]
	running, release := make(chan struct{}), make(chan struct{})
	d.post(func() { close(running); <-release })
	<-running
	var ran atomic.Int32
	for full := false; !full; {
		select {
		case d.events <- func() { ran.Add(1) }:
		default:
			full = true
		}
	}
	killed := make(chan struct{})
	go func() { d.Kill(); close(killed) }()
	// Kill closes the transport after its wake-up, while the loop is still
	// held in the first event.
	waitFor(t, 5*time.Second, "Kill past its wake-up", func() bool {
		return errors.Is(d.tr.AddPeer(9, "127.0.0.1:1"), udptransport.ErrClosed)
	})
	close(release)
	select {
	case <-killed:
	case <-time.After(5 * time.Second):
		t.Fatal("Kill did not return")
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d queued events ran after the kill", n)
	}
}

// TestClusterUnderChaoticTransport forms a small cluster with 20%% of
// outbound data frames artificially dropped: the ARQ layer must still
// converge the protocol.
func TestClusterUnderChaoticTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	daemons := make([]*Daemon, 3)
	for i := 0; i < 3; i++ {
		cfg := Config{
			ID:         radio.NodeID(i + 1),
			Space:      testSpace,
			Bootstrap:  i == 0,
			Listen:     "127.0.0.1:0",
			HTTPListen: "127.0.0.1:0",
			DropRate:   0.2,
		}
		fastTimings(&cfg)
		cfg.SuspectAfter = 2 * time.Second // chaos delays heartbeats too
		if i > 0 {
			cfg.Seeds = []radio.NodeID{1}
		}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Kill)
		daemons[i] = d
	}
	for _, a := range daemons {
		for _, b := range daemons {
			if a != b {
				if err := a.AddPeer(b.ID(), b.UDPAddr().String()); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	waitFor(t, 30*time.Second, "formation under 20% frame loss", func() bool {
		for _, d := range daemons {
			v, err := tryStatus(d)
			if err != nil || !v.Joined || len(v.Electorate) != 3 {
				return false
			}
		}
		return true
	})
	if _, code := allocate(t, daemons[2]); code != http.StatusOK {
		t.Errorf("allocate under chaos: HTTP %d", code)
	}
}

// TestDuplicateAddressesNeverGranted hammers concurrent allocations from
// every daemon and asserts global uniqueness — the paper's core guarantee.
func TestDuplicateAddressesNeverGranted(t *testing.T) {
	ds := newCluster(t, 3)
	waitFor(t, 20*time.Second, "three-daemon formation", func() bool {
		for _, d := range ds {
			v, err := tryStatus(d)
			if err != nil || !v.Joined || len(v.Electorate) != 3 {
				return false
			}
		}
		return true
	})

	type grant struct {
		addr string
		from int
	}
	results := make(chan grant, 30)
	for _, d := range ds {
		for i := 0; i < 5; i++ {
			go func(d *Daemon) {
				resp, err := http.Post("http://"+d.HTTPAddr()+"/v1/allocate", "application/json", nil)
				if err != nil {
					results <- grant{}
					return
				}
				defer resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					results <- grant{}
					return
				}
				var v AllocateResponse
				if json.NewDecoder(resp.Body).Decode(&v) != nil {
					results <- grant{}
					return
				}
				results <- grant{addr: v.Addr, from: int(d.ID())}
			}(d)
		}
	}
	seen := make(map[string]int)
	granted := 0
	for i := 0; i < 15; i++ {
		select {
		case g := <-results:
			if g.addr == "" {
				continue // timeouts/conflicts are allowed, duplicates are not
			}
			granted++
			if prev, dup := seen[g.addr]; dup {
				t.Fatalf("address %s granted to both daemon %d and daemon %d", g.addr, prev, g.from)
			}
			seen[g.addr] = g.from
		case <-time.After(30 * time.Second):
			t.Fatal("allocation results never arrived")
		}
	}
	if granted == 0 {
		t.Fatal("no concurrent allocation succeeded")
	}
	t.Logf("%d/15 concurrent allocations granted, all unique", granted)
}

func ExampleStatusResponse() {
	v := StatusResponse{ID: 1, Role: "owner", Joined: true, Space: testSpace.String()}
	fmt.Println(v.Role, v.Space)
	// Output: owner 10.0.0.1-10.0.0.64
}

// TestClusterWithBatchedTransport: the batch cap passes through Config to
// the transport and a cluster forms and allocates over coalesced frames.
// The join handshake itself is mostly lock-step request/response (batches
// of one fall back to plain frames), so the assertion is functional:
// batching must not break or stall the protocol.
func TestClusterWithBatchedTransport(t *testing.T) {
	daemons := newCluster(t, 3, func(c *Config) {
		c.BatchFlushBytes = 16 * 1024
	})
	waitFor(t, 15*time.Second, "3 daemons joined", func() bool {
		for _, d := range daemons {
			v, err := tryStatus(d)
			if err != nil || !v.Joined {
				return false
			}
		}
		return true
	})
	if v, code := allocate(t, daemons[0]); code != http.StatusOK || v.Addr == "" {
		t.Fatalf("allocate over batched transport: code %d, view %+v", code, v)
	}
}
