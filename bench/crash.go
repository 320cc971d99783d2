package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/ctl"
	"quorumconf/internal/daemon"
	"quorumconf/internal/obs"
	"quorumconf/internal/transport/udptransport"
)

// crash5's script. Times are offsets inside one epoch.
const (
	crashFleet       = 5
	crashRate        = 100 // open-loop requests per second at member 2
	crashPrealloc    = 200 // addresses the victim holds when it dies
	crashVictimAt    = 300 * time.Millisecond
	crashOwnerAfter  = 300 * time.Millisecond  // owner dies this long after the reclaim completes
	crashTail        = 2500 * time.Millisecond // load continues this long after the owner dies
	crashAllocWait   = 2 * time.Second         // AllocTimeout
	crashLoadDaemon  = 1                       // member 2: lowest-ID survivor, so the next owner
	crashSuspect     = 400 * time.Millisecond
	reclaimedCounter = "daemon.reclaimed_addrs"
)

func crashTimings(c *daemon.Config) {
	c.HeartbeatInterval = 50 * time.Millisecond
	c.SuspectAfter = crashSuspect
	c.ReclaimSettle = 200 * time.Millisecond
	c.QuorumTimeout = 300 * time.Millisecond
	c.AllocTimeout = crashAllocWait
}

// clock lets the open-loop scheduler run against a fake in tests.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// openLoop issues request i at start + i*interval for as long as more
// approves its due time. It never issues early; when it falls behind it
// issues back to back without moving the due times, so a stall shows up as
// lateness here and as latency in requests timed from their due time.
// issue must not block. It returns how late each request was issued.
func openLoop(clk clock, start time.Time, interval time.Duration, more func(due time.Time) bool, issue func(i int, due time.Time)) []time.Duration {
	var late []time.Duration
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !more(due) {
			return late
		}
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		late = append(late, clk.Now().Sub(due))
		issue(i, due)
	}
}

// crashRequest is one open-loop request, timed from when it was due.
type crashRequest struct {
	due, done time.Time
	addr      addrspace.Addr
	ok        bool
	call      int64 // traced: the ctl.Allocate span
}

// crashEpoch is what one crash5 epoch measured.
type crashEpoch struct {
	setup      time.Duration // boot + pre-allocation
	load       time.Duration // open-loop section
	cpu        time.Duration
	requests   []crashRequest
	late       []time.Duration
	victimKill time.Time
	ownerKill  time.Time
	reclaim    time.Duration // victim kill -> owner counted the reclaimed addresses
	failover   time.Duration // owner kill -> first success among requests due after it
	preGranted []addrspace.Addr
	counters   map[string]int64
	ballot     obs.HistogramSnapshot
	config     obs.HistogramSnapshot
	detect     time.Duration // traced: victim kill -> owner's peer_dead
	settle     time.Duration // traced: reclaim_start -> last reclaim_free
}

// inWindow reports whether q was in flight or due while the fleet had no
// owner: between the owner's death and the first success after it.
func (e *crashEpoch) inWindow(q crashRequest) bool {
	return !q.done.Before(e.ownerKill) && !q.due.After(e.ownerKill.Add(e.failover))
}

// log prints the epoch's outcome to standard error; failures outside the
// failover window are listed by when they were due, since they are what a
// later reader will want to explain.
func (e *crashEpoch) log(epoch int) {
	lost, stray := 0, ""
	for _, q := range e.requests {
		switch {
		case q.ok:
		case e.inWindow(q):
			lost++
		default:
			stray += fmt.Sprintf(" %+.3fs", q.due.Sub(e.ownerKill).Seconds())
		}
	}
	fmt.Fprintf(os.Stderr, "crash5 epoch %d: %d requests, %d lost to the failover, reclaim %.3fs, failover %.3fs\n",
		epoch, len(e.requests), lost, e.reclaim.Seconds(), e.failover.Seconds())
	if stray != "" {
		fmt.Fprintf(os.Stderr, "crash5 epoch %d: failed outside the failover window, due relative to the owner's death:%s\n", epoch, stray)
	}
}

// bootCrashFleet boots the five daemons and has the victim allocate the
// addresses its crash will strand.
func bootCrashFleet(victim int, clock obs.Clock) (*fleet, []addrspace.Addr, time.Duration, error) {
	t0 := time.Now()
	f, err := bootFleet(crashFleet, crashTimings, clock)
	if err != nil {
		return nil, nil, 0, err
	}
	hc, tr := newHTTPClient(10*time.Second, loadClients)
	f.idle = append(f.idle, tr)
	cl := ctl.New(f.daemons[victim].HTTPAddr(), ctl.WithHTTPClient(hc))
	granted := make([]addrspace.Addr, crashPrealloc)
	errs := make([]error, loadClients)
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < crashPrealloc; i += loadClients {
				resp, err := cl.Allocate(context.Background(), 0)
				if err != nil {
					errs[c] = err
					return
				}
				granted[i] = addrspace.Addr(resp.Value)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			f.kill()
			return nil, nil, 0, fmt.Errorf("crash5 pre-allocation: %w", err)
		}
	}
	return f, granted, time.Since(t0), nil
}

// runCrashEpoch plays the script once: load at member 2 throughout, the
// victim dies, the owner reclaims its addresses, the owner dies, member 2
// takes over.
func runCrashEpoch(seed int64, epoch int, rec *recorder) (*crashEpoch, error) {
	rng := rand.New(rand.NewSource(epochSeed(seed, epoch, 0)))
	victim := 2 + rng.Intn(3) // members 3-5
	var clk obs.Clock
	if rec != nil {
		clk = rec.clock
	}
	f, pre, setup, err := bootCrashFleet(victim, clk)
	if err != nil {
		return nil, err
	}
	defer f.kill()
	e := &crashEpoch{setup: setup, preGranted: pre}
	violation := func(format string, args ...any) error {
		return &oracleError{workload: wlCrash5, seed: seed, epoch: epoch, what: fmt.Sprintf(format, args...)}
	}

	// Failing requests hold a connection for AllocTimeout, so the pool is
	// sized for every request that can be in flight at once.
	hc, tr := newHTTPClient(crashAllocWait+time.Second, crashRate*int(crashAllocWait/time.Second+1))
	f.idle = append(f.idle, tr)
	cl := ctl.New(f.daemons[crashLoadDaemon].HTTPAddr(), ctl.WithHTTPClient(hc))

	var mu sync.Mutex
	var inflight sync.WaitGroup
	var stopAt atomic.Int64 // unix nanos; 0 until the script knows when load ends
	start := time.Now()
	cpu0 := cpuTime()

	scriptErr := make(chan error, 1)
	go func() {
		scriptErr <- func() error {
			time.Sleep(time.Until(start.Add(crashVictimAt)))
			owner := f.daemons[0]
			base := owner.Metrics().Counter(reclaimedCounter)
			e.victimKill = time.Now()
			f.daemons[victim].Kill()
			if err := pollUntil(10*time.Second, func() bool {
				return owner.Metrics().Counter(reclaimedCounter)-base >= crashPrealloc
			}); err != nil {
				stopAt.Store(time.Now().UnixNano())
				return violation("owner never reclaimed the victim's %d addresses", crashPrealloc)
			}
			e.reclaim = time.Since(e.victimKill)
			time.Sleep(crashOwnerAfter)
			e.ownerKill = time.Now()
			stopAt.Store(e.ownerKill.Add(crashTail).UnixNano())
			owner.Kill()
			return nil
		}()
	}()

	e.late = openLoop(wallClock{}, start, time.Second/crashRate,
		func(due time.Time) bool {
			stop := stopAt.Load()
			return stop == 0 || due.UnixNano() < stop
		},
		func(i int, due time.Time) {
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				opID := rec.begin(0, "bench.op", "bench")
				callID := rec.begin(opID, "ctl.Allocate", "ctl")
				resp, err := cl.Allocate(context.Background(), 0)
				q := crashRequest{due: due, done: time.Now(), addr: addrspace.Addr(resp.Value), ok: err == nil, call: callID}
				rec.end(callID, err != nil)
				rec.end(opID, err != nil)
				mu.Lock()
				e.requests = append(e.requests, q)
				mu.Unlock()
			}()
		})
	inflight.Wait()
	e.load = time.Since(start)
	e.cpu = cpuTime() - cpu0
	if err := <-scriptErr; err != nil {
		return nil, err
	}

	e.counters = f.counters()
	e.ballot = f.hist(obs.HistBallotRTT, 0, crashLoadDaemon)
	e.config = f.hist(obs.HistConfigLatency, crashLoadDaemon)

	firstOK := time.Time{}
	for _, q := range e.requests {
		if q.ok && !q.due.Before(e.ownerKill) && (firstOK.IsZero() || q.done.Before(firstOK)) {
			firstOK = q.done
		}
	}
	if firstOK.IsZero() {
		return nil, violation("no allocation succeeded after the owner died")
	}
	e.failover = firstOK.Sub(e.ownerKill)

	// Oracle. The victim's addresses come back into the pool, so the load
	// may be granted one again — but only after the reclamation could have
	// run, and never twice.
	stranded := make(map[addrspace.Addr]bool, len(pre))
	for _, a := range pre {
		stranded[a] = true
	}
	var granted []addrspace.Addr
	failed := 0
	for _, q := range e.requests {
		if !q.ok {
			failed++
			continue
		}
		granted = append(granted, q.addr)
		if stranded[q.addr] && q.done.Before(e.victimKill.Add(crashSuspect)) {
			return nil, violation("address %v granted again %v after its holder died, before it could be suspected", q.addr, q.done.Sub(e.victimKill))
		}
	}
	var alive []int
	for i := 1; i < crashFleet; i++ {
		if i != victim {
			alive = append(alive, i)
		}
	}
	if err := f.checkEpoch(granted, failed, alive, crashLoadDaemon); err != nil {
		return nil, violation("%v", err)
	}

	if rec != nil {
		if err := e.attachTrace(f, rec, victim); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// attachTrace adds the daemon-side segments of every successful request
// and reads the failure-detection and reclamation times off the rings.
func (e *crashEpoch) attachTrace(f *fleet, rec *recorder, victim int) error {
	events := f.events()
	segs := segmentsByAddr(events)
	for _, q := range e.requests {
		if !q.ok {
			continue
		}
		s, ok := segs[q.addr]
		if !ok || !s.complete {
			continue // a re-granted stranded address has two timelines; the map keeps one
		}
		rec.addSegments(q.call, s)
	}
	victimID := f.daemons[victim].ID()
	ownerID := f.daemons[0].ID()
	killAt := e.victimKill.Sub(rec.epoch)
	var reclaimStart, lastFree time.Duration
	for _, ev := range events {
		if ev.Node != ownerID || ev.Peer != victimID {
			continue
		}
		switch ev.Kind {
		case obs.EvPeerDead:
			e.detect = ev.Time - killAt
		case obs.EvReclaimStart:
			reclaimStart = ev.Time
		case obs.EvReclaimFree:
			if ev.Time > lastFree {
				lastFree = ev.Time
			}
		}
	}
	if e.detect <= 0 || reclaimStart == 0 || lastFree < reclaimStart {
		return fmt.Errorf("crash5: the owner's ring lacks peer_dead/reclaim_start/reclaim_free for daemon %d", victimID)
	}
	e.settle = lastFree - reclaimStart
	return nil
}

// runCrash runs crash5: set-up-only boots, then epochs until the budget
// is used up.
func runCrash(o runOpts) (*result, error) {
	r := newResult(wlCrash5)
	budget := o.seconds
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		budget *= tracedShare
	}
	var setups []float64
	for i := 0; i < setupBoots; i++ {
		f, _, setup, err := bootCrashFleet(2+i%3, nil)
		if err != nil {
			return nil, err
		}
		f.kill()
		setups = append(setups, setup.Seconds())
	}
	var epochs []*crashEpoch
	if err := o.epochs(budget, func(_, epoch int) error {
		e, err := runCrashEpoch(o.seed, epoch, rec)
		if err != nil {
			return err
		}
		e.log(epoch)
		epochs = append(epochs, e)
		setups = append(setups, e.setup.Seconds())
		return nil
	}); err != nil {
		return nil, err
	}

	var all, steady, late, reclaims, failovers, detects, settles []float64
	var load, cpu time.Duration
	var ballot, config obs.HistogramSnapshot
	counters := make(map[string]int64)
	ok, lost, prealloc := 0, 0, 0
	for _, e := range epochs {
		load += e.load
		cpu += e.cpu
		prealloc += len(e.preGranted)
		reclaims = append(reclaims, e.reclaim.Seconds())
		failovers = append(failovers, e.failover.Seconds())
		detects = append(detects, e.detect.Seconds())
		settles = append(settles, e.settle.Seconds())
		addHist(&ballot, e.ballot)
		addHist(&config, e.config)
		for name, v := range e.counters {
			counters[name] += v
		}
		for _, d := range e.late {
			late = append(late, float64(d)/float64(time.Millisecond))
		}
		for _, q := range e.requests {
			r.Attempted++
			window := e.inWindow(q)
			if !q.ok {
				if window {
					lost++
				} else {
					r.Failed++
				}
				continue
			}
			ok++
			ms := float64(q.done.Sub(q.due)) / float64(time.Millisecond)
			all = append(all, ms)
			if !window {
				steady = append(steady, ms)
			}
		}
	}
	all, steady, late = pool(all), pool(steady), pool(late)

	if !o.trace {
		r.set("setup_s", median(setups), len(setups))
		r.set("alloc_per_s", ratio(float64(ok), load.Seconds()), ok)
		r.set("alloc_p50_ms", percentile(all, 0.50), len(all))
		r.set("alloc_p99_ms", percentile(steady, 0.99), len(steady))
		r.set("msgs_per_alloc", ratio(float64(counters[udptransport.CtrDataTx]), float64(ok+prealloc)), ok+prealloc)
		r.set("cpu_ms_per_alloc", ratio(float64(cpu)/float64(time.Millisecond), float64(ok)), ok)
		r.set("alloc_fail_share", ratio(float64(lost+r.Failed), float64(r.Attempted)), r.Attempted)
		r.set("reclaim_s", median(reclaims), len(reclaims))
		r.set("failover_s", median(failovers), len(failovers))
		return r, nil
	}
	fleetLayers(r, counters, ok+prealloc, ballot, config, percentile(all, 0.50))
	segmentMetrics(r, rec)
	r.set("daemon.detect_s", median(detects), len(detects))
	r.set("daemon.reclaim_settle_s", median(settles), len(settles))
	r.set("daemon.lost_during_failover", float64(lost)/float64(len(epochs)), len(epochs))
	r.set("gen.late_p99_ms", percentile(late, 0.99), len(late))
	if err := runProbes(r, rec); err != nil {
		return nil, err
	}
	return r, finishTrace(r, rec, o.dir)
}
