package main

import (
	"fmt"
	"time"
)

// runOpts are one run's arguments.
type runOpts struct {
	seed    int64
	seconds float64 // measurement budget; epochs repeat until it is used up
	trace   bool    // traced run: per-layer metrics instead of end-to-end ones
	dir     string  // traced run: where spans.jsonl and layers.json go ("" = nowhere)
	epoch   int     // >= 0: run only this epoch (the oracle's repro)
	// ops and maxEpochs shrink a run for the smoke test; zero means the
	// workload's own K and as many epochs as the budget holds.
	ops       int
	maxEpochs int
}

// workloadInfo names a workload and says why it exists.
type workloadInfo struct {
	name string
	why  string
	run  func(runOpts) (*result, error)
}

func workloads() []workloadInfo {
	closed := func(name string) func(runOpts) (*result, error) {
		return func(o runOpts) (*result, error) { return runClosedLoop(closedLoopSpecs[name], o) }
	}
	return []workloadInfo{
		{wlOwner3, "3 daemons, both clients at the owner: shortest path (8 datagrams/alloc), so HTTP, event loop and table dominate", closed(wlOwner3)},
		{wlMember5, "5 daemons, requests at seed-chosen members: forward hop + 4-voter ballot (19 datagrams/alloc), so wire and udptransport per-message cost dominates", closed(wlMember5)},
		{wlLossy5, "member5 with 2% datagram loss: ARQ retransmit timers do the work, CPU little; codec changes should not show here", closed(wlLossy5)},
		{wlSecureBatched5, "member5 with HMAC-sealed datagrams and greedy batch frames: the same layers used the other way", closed(wlSecureBatched5)},
		{wlCrash5, "open loop 100 allocs/s through a member crash, its reclamation and an owner failover: timer-dominated, must not move for codec or transport changes", runCrash},
		{wlSimChurn, "the simulator's sustained-churn scenario (core, sim, radio, netstack; no sockets): fleet-side changes must leave it flat", runSimChurn},
	}
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// epochs calls run for the nth time with epoch number n until budget
// seconds are used up — another epoch starts while at least half of one of
// the last one's length still fits — or maxEpochs is reached. With -epoch
// it calls run once, for that epoch.
func (o runOpts) epochs(budget float64, run func(n, epoch int) error) error {
	if o.epoch >= 0 {
		return run(0, o.epoch)
	}
	start := time.Now()
	for n := 0; ; n++ {
		epochStart := time.Now()
		if err := run(n, n); err != nil {
			return err
		}
		left := time.Duration(budget*float64(time.Second)) - time.Since(start)
		if n+1 == o.maxEpochs || left < time.Since(epochStart)/2 {
			return nil
		}
	}
}

// tracedShare is the part of a traced run's budget its fleet epochs get;
// the per-layer probes take the rest.
const tracedShare = 0.75

// runClosedLoop runs one closed-loop fleet workload: a few set-up-only
// boots, then epochs until the budget is used up. A traced run alternates
// traced and untraced epochs of the same size, so the ratio of their rates
// is the tracing overhead, and finishes with the per-layer probes.
func runClosedLoop(spec closedLoopSpec, o runOpts) (*result, error) {
	r := newResult(spec.name)
	ops := epochOps
	budget := o.seconds
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		ops = tracedEpochOps
		budget *= tracedShare
	}
	if o.ops > 0 {
		ops = o.ops
	}
	if ops < 2*loadClients {
		return nil, fmt.Errorf("%s: %d operations per epoch is fewer than two per client", spec.name, ops)
	}

	var traced, plain closedLoopTotals
	for i := 0; i < setupBoots; i++ {
		f, err := bootFleet(spec.size, spec.configure, nil)
		if err != nil {
			return nil, err
		}
		f.kill()
		plain.boots = append(plain.boots, f.boot.Seconds())
	}
	if err := o.epochs(budget, func(n, epoch int) error {
		tot, epochRec := &plain, (*recorder)(nil)
		if o.trace && n%2 == 0 {
			tot, epochRec = &traced, rec
		}
		e, err := runClosedEpoch(spec, o.seed, epoch, ops, epochRec)
		if err != nil {
			return err
		}
		tot.add(e)
		return nil
	}); err != nil {
		return nil, err
	}

	if !o.trace {
		plain.endToEnd(r)
		if len(plain.slopeLo) > 0 {
			// Printed with the end-to-end numbers because it needs the full
			// 0 -> 4000 fill a traced epoch does not have.
			fill := float64(ops-warmupOps-ops/4) / 1000
			slope := (percentile(pool(plain.slopeHi), 0.5) - percentile(pool(plain.slopeLo), 0.5)) * 1e3 / fill
			r.set("daemon.fill_slope_us_per_kaddr", slope, len(plain.slopeLo))
		}
		return r, nil
	}
	r.Attempted = traced.attempted + plain.attempted
	r.Failed = traced.failed + plain.failed
	fleetLayers(r, traced.counters, traced.successes, traced.ballot, traced.config, percentile(pool(traced.timed...), 0.50))
	segmentMetrics(r, rec)
	tracedRate := ratio(float64(traced.timedOK), traced.wall.Seconds())
	plainRate := ratio(float64(plain.timedOK), plain.wall.Seconds())
	r.set("trace.overhead_ratio", ratio(tracedRate, plainRate), traced.timedOK+plain.timedOK)
	if err := runProbes(r, rec); err != nil {
		return nil, err
	}
	return r, finishTrace(r, rec, o.dir)
}

// segmentMetrics reports the median length of each daemon-side segment
// the traced epochs attached under ctl.Allocate.
func segmentMetrics(r *result, rec *recorder) {
	byName := make(map[string][]float64)
	for _, s := range rec.snapshot() {
		if s.Layer == "daemon" && s.Parent != 0 {
			byName[s.Name] = append(byName[s.Name], us(s.End-s.Start))
		}
	}
	for _, seg := range []string{"forward", "ballot", "reply"} {
		v := byName["daemon."+seg]
		r.set("daemon.seg_"+seg+"_p50_us", median(v), len(v))
	}
}

// finishTrace folds the run's spans into layers.json (checking that self
// times account for the roots) and writes the trace files when asked to.
func finishTrace(r *result, rec *recorder, dir string) error {
	spans := rec.snapshot()
	perLayer := make(map[string]float64, len(r.Metrics))
	for name, v := range r.Metrics {
		perLayer[name] = v.V
	}
	rep := buildLayers(spans, perLayer)
	if rep.RootUS > 0 {
		if gap := (rep.SelfSumUS - rep.RootUS) / rep.RootUS; gap > 0.05 || gap < -0.05 {
			return fmt.Errorf("trace: self times sum to %.0f us, root spans to %.0f us", rep.SelfSumUS, rep.RootUS)
		}
	}
	if dir == "" {
		return nil
	}
	return writeTrace(dir, spans, rep)
}
