package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/ctl"
	"quorumconf/internal/daemon"
	"quorumconf/internal/obs"
	"quorumconf/internal/transport/udptransport"
)

const (
	// loadClients is C: closed-loop client goroutines, one keep-alive
	// connection in use each, never more than the sandbox has cores.
	loadClients = 2
	// epochOps is K, the allocations one fleet serves before it is killed.
	epochOps = 4000
	// tracedEpochOps is K for a traced epoch, sized to the daemons' rings.
	tracedEpochOps = 1000
	// warmupOps at the start of every epoch (connection set-up, page
	// faults) are served but not timed.
	warmupOps = 200
	// setupBoots is how many extra fleets a run boots and kills before its
	// first epoch, so setup_s is a median over many set-ups even when the
	// run has few epochs (lossy5: 3, and a join that loses a datagram
	// takes 10 ms longer).
	setupBoots = 15
)

// closedLoopSpec is what distinguishes the closed-loop fleet workloads.
type closedLoopSpec struct {
	name      string
	size      int
	atOwner   bool // true: every request at the owner; false: at a seed-chosen member
	configure func(*daemon.Config)
}

// benchAuthKey is the 32-byte cluster key of secure_batched5.
var benchAuthKey = []byte("quorumbench-secure-batched5-key!")

var closedLoopSpecs = map[string]closedLoopSpec{
	wlOwner3:  {name: wlOwner3, size: 3, atOwner: true},
	wlMember5: {name: wlMember5, size: 5},
	wlLossy5: {name: wlLossy5, size: 5, configure: func(c *daemon.Config) {
		c.DropRate = 0.02
	}},
	wlSecureBatched5: {name: wlSecureBatched5, size: 5, configure: func(c *daemon.Config) {
		c.AuthKey = benchAuthKey
		c.BatchFlushBytes = 16384
	}},
}

// opRecord is one client-observed allocation.
type opRecord struct {
	latency time.Duration
	addr    addrspace.Addr
	ok      bool
}

// epochResult is what one closed-loop epoch measured.
type epochResult struct {
	boot     time.Duration
	wall     time.Duration // timed section
	cpu      time.Duration // process CPU over the timed section
	clients  [][]opRecord  // per client, in issue order, warm-up included
	counters map[string]int64
	ballot   obs.HistogramSnapshot // owner's ballot RTT
	config   obs.HistogramSnapshot // server-side config latency, daemons that took requests
}

// warmupPerClient is how many of a client's perClient operations are
// warm-up: its share of warmupOps, at most half of what it issues.
func warmupPerClient(perClient int) int {
	warm := warmupOps / loadClients
	if warm > perClient/2 {
		warm = perClient / 2
	}
	return warm
}

// epochSeed derives the input stream of one client in one epoch from the
// run seed, so -epoch N replays exactly the requests epoch N saw.
func epochSeed(seed int64, epoch, client int) int64 {
	return seed*1_000_003 + int64(epoch)*1_009 + int64(client)
}

// runClosedEpoch boots a fleet, serves ops allocations from loadClients
// closed-loop clients, checks the epoch and kills the fleet. rec, when
// non-nil, makes this a traced epoch.
func runClosedEpoch(spec closedLoopSpec, seed int64, epoch, ops int, rec *recorder) (*epochResult, error) {
	var clock obs.Clock
	if rec != nil {
		clock = rec.clock
	}
	f, err := bootFleet(spec.size, spec.configure, clock)
	if err != nil {
		return nil, err
	}
	defer f.kill()
	res := &epochResult{boot: f.boot, clients: make([][]opRecord, loadClients)}

	perClient := ops / loadClients
	warm := warmupPerClient(perClient)
	var warmed, finished sync.WaitGroup
	start := make(chan struct{})
	calls := make([]map[addrspace.Addr]int64, loadClients) // traced: granted address -> ctl.Allocate span
	for c := 0; c < loadClients; c++ {
		warmed.Add(1)
		finished.Add(1)
		hc, tr := newHTTPClient(10*time.Second, spec.size)
		f.idle = append(f.idle, tr)
		targets := make([]*ctl.Client, spec.size)
		for i, d := range f.daemons {
			targets[i] = ctl.New(d.HTTPAddr(), ctl.WithHTTPClient(hc))
		}
		rng := rand.New(rand.NewSource(epochSeed(seed, epoch, c)))
		records := make([]opRecord, 0, perClient)
		if rec != nil {
			calls[c] = make(map[addrspace.Addr]int64, perClient)
		}
		go func(c int) {
			defer finished.Done()
			for i := 0; i < perClient; i++ {
				if i == warm {
					warmed.Done()
					<-start
				}
				opID := rec.begin(0, "bench.op", "bench")
				target := 0
				if !spec.atOwner {
					target = 1 + rng.Intn(spec.size-1)
				}
				callID := rec.begin(opID, "ctl.Allocate", "ctl")
				t0 := time.Now()
				resp, err := targets[target].Allocate(context.Background(), 0)
				r := opRecord{latency: time.Since(t0), addr: addrspace.Addr(resp.Value), ok: err == nil}
				rec.end(callID, err != nil)
				records = append(records, r)
				if rec != nil && r.ok {
					calls[c][r.addr] = callID
				}
				rec.end(opID, err != nil)
			}
			res.clients[c] = records
		}(c)
	}
	warmed.Wait()
	cpu0 := cpuTime()
	t0 := time.Now()
	close(start)
	finished.Wait()
	res.wall = time.Since(t0)
	res.cpu = cpuTime() - cpu0

	alive := make([]int, spec.size)
	for i := range alive {
		alive[i] = i
	}
	res.counters = f.counters()
	res.ballot = f.hist(obs.HistBallotRTT, 0)
	takers := []int{0}
	if !spec.atOwner {
		takers = alive[1:]
	}
	res.config = f.hist(obs.HistConfigLatency, takers...)

	var granted []addrspace.Addr
	failed := 0
	for _, records := range res.clients {
		for _, r := range records {
			if r.ok {
				granted = append(granted, r.addr)
			} else {
				failed++
			}
		}
	}
	if err := f.checkEpoch(granted, failed, alive, 0); err != nil {
		return nil, &oracleError{workload: spec.name, seed: seed, epoch: epoch, what: err.Error()}
	}
	if rec != nil {
		segs := segmentsByAddr(f.events())
		for _, ids := range calls {
			for addr, callID := range ids {
				s, ok := segs[addr]
				if !ok || !s.complete {
					return nil, fmt.Errorf("%s epoch %d: no complete daemon-side timeline for %v (trace ring too small?)", spec.name, epoch, addr)
				}
				rec.addSegments(callID, s)
			}
		}
	}
	return res, nil
}

// closedLoopTotals pools epochs into the run's end-to-end numbers.
type closedLoopTotals struct {
	boots     []float64 // seconds
	timed     [][]float64
	successes int // all epochs, warm-up included
	timedOK   int
	attempted int
	failed    int
	wall, cpu time.Duration
	counters  map[string]int64
	ballot    obs.HistogramSnapshot
	config    obs.HistogramSnapshot
	slopeLo   []float64 // ms, early-fill window
	slopeHi   []float64 // ms, late-fill window
}

func (t *closedLoopTotals) add(e *epochResult) {
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.boots = append(t.boots, e.boot.Seconds())
	t.wall += e.wall
	t.cpu += e.cpu
	for name, v := range e.counters {
		t.counters[name] += v
	}
	addHist(&t.ballot, e.ballot)
	addHist(&t.config, e.config)
	for _, records := range e.clients {
		warm := warmupPerClient(len(records))
		var lat []float64
		for i, r := range records {
			t.attempted++
			if !r.ok {
				t.failed++
				continue
			}
			t.successes++
			if i >= warm {
				t.timedOK++
				lat = append(lat, float64(r.latency)/float64(time.Millisecond))
			}
		}
		t.timed = append(t.timed, lat)
		// Fill-slope windows: the first and the last quarter of the
		// epoch's operations (1000 of 4000), per client.
		if w := len(records) / 4; w > 0 && len(lat) >= 2*w {
			t.slopeLo = append(t.slopeLo, lat[:w]...)
			t.slopeHi = append(t.slopeHi, lat[len(lat)-w:]...)
		}
	}
}

// endToEnd fills the run's end-to-end metrics into r.
func (t *closedLoopTotals) endToEnd(r *result) {
	lat := pool(t.timed...)
	dataTx := float64(t.counters[udptransport.CtrDataTx])
	r.Attempted, r.Failed = t.attempted, t.failed
	r.set("setup_s", median(t.boots), len(t.boots))
	r.set("alloc_per_s", ratio(float64(t.timedOK), t.wall.Seconds()), t.timedOK)
	r.set("alloc_p50_ms", percentile(lat, 0.50), len(lat))
	r.set("alloc_p99_ms", percentile(lat, 0.99), len(lat))
	r.set("msgs_per_alloc", ratio(dataTx, float64(t.successes)), t.successes)
	r.set("cpu_ms_per_alloc", ratio(float64(t.cpu)/float64(time.Millisecond), float64(t.timedOK)), t.timedOK)
	r.set("alloc_fail_share", ratio(float64(t.failed), float64(t.attempted)), t.attempted)
}

// fleetLayers fills the per-layer metrics that come from a fleet's own
// counters and histograms: counters summed over the daemons, per
// successful allocation; the owner's ballot RTT; the server-side
// configuration latency next to the client-observed median.
func fleetLayers(r *result, counters map[string]int64, successes int, ballot, config obs.HistogramSnapshot, clientP50ms float64) {
	n := float64(successes)
	c := func(name string) float64 { return float64(counters[name]) }
	r.set("udptransport.data_tx_per_alloc", ratio(c(udptransport.CtrDataTx), n), successes)
	r.set("udptransport.ack_tx_per_alloc", ratio(c(udptransport.CtrAckTx), n), successes)
	r.set("udptransport.retries_per_alloc", ratio(c(udptransport.CtrRetries), n), successes)
	r.set("udptransport.dup_drop_per_alloc", ratio(c(udptransport.CtrDupDrop), n), successes)
	r.set("udptransport.send_drop_per_alloc", ratio(c(udptransport.CtrSendDrop), n), successes)
	r.set("udptransport.batch_occupancy_mean", ratio(c(udptransport.CtrBatched), c(udptransport.CtrBatchTx)), int(c(udptransport.CtrBatchTx)))
	r.set("daemon.ballot_rtt_p50_us", ballot.Quantile(0.50)*1e6, int(ballot.Count))
	r.set("daemon.ballot_rtt_p99_us", ballot.Quantile(0.99)*1e6, int(ballot.Count))
	r.set("daemon.config_latency_p50_us", config.Quantile(0.50)*1e6, int(config.Count))
	r.set("daemon.ballots_per_alloc", ratio(c("daemon.ballots"), n), successes)
	r.set("daemon.ballot_retries_per_alloc", ratio(c("daemon.ballot_retries"), n), successes)
	r.set("daemon.ballot_timeouts_per_alloc", ratio(c("daemon.ballot_timeouts"), n), successes)
	r.set("ctl.http_overhead_p50_us", clientP50ms*1e3-config.Quantile(0.50)*1e6, int(config.Count))
}
