package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"syscall"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/ctl"
	"quorumconf/internal/daemon"
	"quorumconf/internal/obs"
	"quorumconf/internal/radio"
)

// benchSpace is 10.0.0.1 - 10.0.63.255. An epoch allocates at most 4000
// of its 16383 addresses: the owner's candidate scan is linear from the
// low end, so a fixed 0 -> K fill keeps both sides of a comparison on the
// same work, and REPLICA_DIST stops fitting one UDP datagram near 10.9k
// touched addresses (see README, findings while sizing).
var benchSpace = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A003FFF}

// tracedRing is the per-daemon event ring size of a traced epoch: about
// 25 events per allocation land on the owner's ring, 1000 allocations an
// epoch.
const tracedRing = 1 << 16

// fleetTimings are the daemon timings every fleet workload shares;
// crash5 overrides the failure-detection ones.
func fleetTimings(cfg *daemon.Config) {
	cfg.HeartbeatInterval = 200 * time.Millisecond
	cfg.JoinRetry = 50 * time.Millisecond
	cfg.RetryBase = 10 * time.Millisecond
}

// fleet is one in-process quorumd cluster on loopback UDP. Daemon i has
// node ID i+1; daemon 0 bootstraps and owns the space.
type fleet struct {
	daemons []*daemon.Daemon
	status  []*ctl.Client
	idle    []*http.Transport
	boot    time.Duration
}

// newHTTPClient returns an HTTP client with a private keep-alive pool, so
// a load goroutine's connections are its own.
func newHTTPClient(timeout time.Duration, conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns}
	return &http.Client{Timeout: timeout, Transport: tr}, tr
}

// bootFleet starts n daemons one after another: start daemon i, register
// it with every earlier daemon and them with it, wait until it reports
// Joined, then start the next; finally wait for the owner's electorate to
// hold all n. (Starting them concurrently takes 0.02-9 s instead of
// 6-14 ms: joins collide on the owner's ballot and fall back to the
// JoinRetry timer.) clock, when non-nil, re-aims every daemon's tracer at
// a shared epoch and raises its ring for a traced epoch.
func bootFleet(n int, configure func(*daemon.Config), clock obs.Clock) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.kill()
		}
	}()
	t0 := time.Now()
	hc, tr := newHTTPClient(5*time.Second, n)
	f.idle = append(f.idle, tr)
	for i := 0; i < n; i++ {
		cfg := daemon.Config{
			ID:         radio.NodeID(i + 1),
			Space:      benchSpace,
			Bootstrap:  i == 0,
			Listen:     "127.0.0.1:0",
			HTTPListen: "127.0.0.1:0",
		}
		if i > 0 {
			cfg.Seeds = []radio.NodeID{1}
		}
		fleetTimings(&cfg)
		if configure != nil {
			configure(&cfg)
		}
		var tracer *obs.Tracer
		if clock != nil {
			tracer = obs.NewTracer(clock)
			cfg.Tracer = tracer
			cfg.TraceRing = tracedRing
		}
		d, err := daemon.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("daemon %d: %w", i+1, err)
		}
		if err := d.Start(); err != nil {
			return nil, fmt.Errorf("daemon %d: %w", i+1, err)
		}
		// Start aims the tracer at the daemon's own start time; restore the
		// shared clock so events compare across daemons and with the
		// benchmark's spans.
		tracer.SetClock(clock)
		earlier := f.daemons
		f.daemons = append(f.daemons, d)
		for _, prev := range earlier {
			if err := prev.AddPeer(d.ID(), d.UDPAddr().String()); err != nil {
				return nil, err
			}
			if err := d.AddPeer(prev.ID(), prev.UDPAddr().String()); err != nil {
				return nil, err
			}
		}
		st := ctl.New(d.HTTPAddr(), ctl.WithHTTPClient(hc), ctl.WithRetries(0))
		f.status = append(f.status, st)
		if err := pollUntil(10*time.Second, func() bool {
			v, err := st.Status(context.Background())
			return err == nil && v.Joined
		}); err != nil {
			return nil, fmt.Errorf("daemon %d never joined", i+1)
		}
	}
	if err := pollUntil(10*time.Second, func() bool {
		v, err := f.status[0].Status(context.Background())
		return err == nil && len(v.Electorate) == n
	}); err != nil {
		return nil, fmt.Errorf("owner electorate never reached %d", n)
	}
	f.boot = time.Since(t0)
	return f, nil
}

// pollUntil polls cond every 200 µs until it holds or timeout passes.
func pollUntil(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// kill stops every daemon (Kill is idempotent, so already-crashed ones
// are fine) and drops the pooled connections.
func (f *fleet) kill() {
	var wg sync.WaitGroup
	for _, d := range f.daemons {
		wg.Add(1)
		go func(d *daemon.Daemon) {
			defer wg.Done()
			d.Kill()
		}(d)
	}
	wg.Wait()
	for _, tr := range f.idle {
		tr.CloseIdleConnections()
	}
}

// counters sums every collector counter over the fleet's daemons.
func (f *fleet) counters() map[string]int64 {
	sum := make(map[string]int64)
	for _, d := range f.daemons {
		for name, v := range d.Metrics().Snapshot().Counters() {
			sum[name] += v
		}
	}
	return sum
}

// hist sums one named histogram over the given daemons.
func (f *fleet) hist(name string, idx ...int) obs.HistogramSnapshot {
	var sum obs.HistogramSnapshot
	for _, i := range idx {
		if s, ok := f.daemons[i].Histograms().Snapshot(name); ok {
			addHist(&sum, s)
		}
	}
	return sum
}

func addHist(dst *obs.HistogramSnapshot, src obs.HistogramSnapshot) {
	dst.Scale = src.Scale
	dst.Count += src.Count
	dst.Sum += src.Sum
	for i := range src.Buckets {
		dst.Buckets[i] += src.Buckets[i]
	}
}

// events concatenates the trace rings of every daemon.
func (f *fleet) events() []obs.Event {
	var all []obs.Event
	for _, d := range f.daemons {
		all = append(all, d.Trace()...)
	}
	return all
}

// oracleError is a correctness violation. Its message ends with the
// one-line repro; a violation suppresses the run's metrics.
type oracleError struct {
	workload string
	seed     int64
	epoch    int
	what     string
}

func (e *oracleError) Error() string {
	return fmt.Sprintf("correctness violation: %s\nrepro: go run -C bench . -workload %s -seed %d -epoch %d",
		e.what, e.workload, e.seed, e.epoch)
}

// checkEpoch is the per-epoch oracle: no address granted twice, every
// survivor still joined, and the owner's occupied count equal to the
// grants plus the live daemons' own addresses. A request the client saw
// fail may still have committed at the owner (the grant was lost on the
// way back), so each failure widens the upper bound by one.
func (f *fleet) checkEpoch(granted []addrspace.Addr, failed int, alive []int, owner int) error {
	seen := make(map[addrspace.Addr]bool, len(granted))
	for _, a := range granted {
		if seen[a] {
			return fmt.Errorf("address %v granted twice", a)
		}
		seen[a] = true
	}
	for _, i := range alive {
		v, err := f.status[i].Status(context.Background())
		if err != nil {
			return fmt.Errorf("daemon %d status: %v", i+1, err)
		}
		if !v.Joined {
			return fmt.Errorf("daemon %d is no longer joined", i+1)
		}
		if i != owner {
			continue
		}
		if v.Role != "owner" {
			return fmt.Errorf("daemon %d reports role %q, want owner", i+1, v.Role)
		}
		lo := len(granted) + len(alive)
		if int(v.Occupied) < lo || int(v.Occupied) > lo+failed {
			return fmt.Errorf("owner reports %d occupied, want %d grants + %d daemons (+ at most %d failed requests)",
				v.Occupied, len(granted), len(alive), failed)
		}
	}
	return nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocSegments are the daemon-side timestamps of one allocation, read
// from the fleet's trace rings by span ID.
type allocSegments struct {
	request, open, commit, grant time.Duration
	aborts                       int
	complete                     bool
}

// segmentsByAddr rebuilds every allocation's causal timeline from the
// rings and keys it by the granted address, which is how the benchmark
// matches a daemon-side span to the operation that caused it (the span ID
// is minted inside the daemon and never reaches the HTTP client).
func segmentsByAddr(events []obs.Event) map[addrspace.Addr]allocSegments {
	out := make(map[addrspace.Addr]allocSegments)
	for _, tl := range obs.BuildSpans(events) {
		var s allocSegments
		var addr addrspace.Addr
		var haveReq, haveOpen, haveCommit, haveGrant bool
		for _, hop := range tl.Hops {
			e := hop.Event
			switch e.Kind {
			case obs.EvAllocRequest:
				if !haveReq && e.Detail != "join" {
					s.request, haveReq = e.Time, true
				}
			case obs.EvBallotOpen:
				if !haveOpen {
					s.open, haveOpen = e.Time, true
				}
			case obs.EvBallotAbort:
				s.aborts++
			case obs.EvBallotCommit:
				s.commit, haveCommit = e.Time, true
			case obs.EvAllocGrant:
				if e.Detail != "join" {
					s.grant, haveGrant = e.Time, true
					addr = e.Addr
				}
			}
		}
		if haveReq && haveGrant {
			s.complete = haveOpen && haveCommit
			out[addr] = s
		}
	}
	return out
}
