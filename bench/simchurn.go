package main

import (
	"fmt"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/experiment"
	"quorumconf/internal/metrics"
	"quorumconf/internal/mobility"
	"quorumconf/internal/protocol"
	"quorumconf/internal/workload"
)

// simVariant is the engine configuration sim_churn runs: the pipelined
// ballot window with the vote cache, the fastest of
// experiment.AllocVariants and the one BENCH_sweeps.json tracks.
func simVariant() experiment.AllocVariant {
	for _, v := range experiment.AllocVariants() {
		if v.Name == "alloc_pipelined_cache" {
			return v
		}
	}
	panic("experiment.AllocVariants no longer has alloc_pipelined_cache")
}

// simScenario rebuilds the scenario of experiment.AllocThroughput, which
// returns only the allocation rate; the benchmark also needs the event
// count and the wall time of the run itself. TestSimChurnMatchesExperiment
// and -selfcheck hold the two copies together.
func simScenario(cfg experiment.AllocThroughputConfig) (workload.Scenario, workload.BuildFunc) {
	spot := mobility.Point{X: 300, Y: 300}
	v := simVariant()
	sc := workload.Scenario{
		Seed:            cfg.Seed,
		NumNodes:        cfg.NumNodes,
		Area:            mobility.Rect{Width: 600, Height: 600},
		ArrivalInterval: 2 * time.Second,
		PerHopDelay:     15 * time.Millisecond,
		SettleTime:      cfg.SettleTime,
		ChurnRate:       cfg.ChurnRate,
		ChurnDuration:   cfg.ChurnDuration,
		ChurnLifetime:   cfg.ChurnLifetime,
		ChurnSpot:       &spot,
		ChurnRadius:     80,
	}
	build := func(rt *protocol.Runtime) (protocol.Protocol, error) {
		return core.New(rt, core.Params{
			Space:        addrspace.Block{Lo: 1, Hi: 4096},
			BallotWindow: v.Window,
			VoteCacheTTL: v.TTL,
		})
	}
	return sc, build
}

// simRun is one repetition of the scenario.
type simRun struct {
	prepare    time.Duration
	wall       time.Duration
	horizon    time.Duration
	events     uint64
	configured int64
	messages   int64
}

// runSimOnce prepares and runs the scenario once; rec, when non-nil,
// records a span around each of the two calls.
func runSimOnce(cfg experiment.AllocThroughputConfig, rec *recorder) (simRun, error) {
	sc, build := simScenario(cfg)
	root := rec.begin(0, "bench.op", "bench")
	id := rec.begin(root, "workload.Prepare", "workload")
	t0 := time.Now()
	prep, err := workload.Prepare(sc, build)
	rec.end(id, err != nil)
	if err != nil {
		return simRun{}, fmt.Errorf("sim_churn: %w", err)
	}
	run := simRun{prepare: time.Since(t0), horizon: prep.Horizon}
	id = rec.begin(root, "sim.RunUntil", "sim")
	t1 := time.Now()
	err = prep.RT.Sim.RunUntil(prep.Horizon)
	rec.end(id, err != nil)
	rec.end(root, err != nil)
	if err != nil {
		return simRun{}, fmt.Errorf("sim_churn: %w", err)
	}
	run.wall = time.Since(t1)
	run.events = prep.RT.Sim.EventsFired()
	coll := prep.Metrics()
	run.configured = coll.Counter(core.CounterConfigured)
	for _, cat := range metrics.Categories() {
		run.messages += coll.Messages(cat)
	}
	if run.configured == 0 {
		return simRun{}, fmt.Errorf("sim_churn: seed %d configured no node", cfg.Seed)
	}
	return run, nil
}

// runSimChurn repeats the full-size scenario until the budget is used up.
// The simulator is deterministic per seed, so the counts must repeat bit
// for bit from one repetition to the next; only the wall time varies.
func runSimChurn(o runOpts) (*result, error) {
	cfg := experiment.DefaultAllocThroughput(false)
	cfg.Seed = o.seed
	r := newResult(wlSimChurn)

	budget := o.seconds
	var rec *recorder
	if o.trace {
		rec = newRecorder()
		budget *= tracedShare
	}
	var prepares, eventRates, wallPerSim []float64
	sc, build := simScenario(cfg)
	for i := 0; i < setupBoots; i++ {
		t0 := time.Now()
		if _, err := workload.Prepare(sc, build); err != nil {
			return nil, fmt.Errorf("sim_churn: %w", err)
		}
		prepares = append(prepares, time.Since(t0).Seconds())
	}
	var first simRun
	if err := o.epochs(budget, func(n, _ int) error {
		run, err := runSimOnce(cfg, rec)
		if err != nil {
			return err
		}
		if n == 0 {
			first = run
		} else if run.events != first.events || run.configured != first.configured || run.messages != first.messages {
			return &oracleError{workload: wlSimChurn, seed: o.seed, what: fmt.Sprintf(
				"repetition %d fired %d events, configured %d, sent %d; repetition 0: %d, %d, %d",
				n, run.events, run.configured, run.messages, first.events, first.configured, first.messages)}
		}
		prepares = append(prepares, run.prepare.Seconds())
		eventRates = append(eventRates, float64(run.events)/run.wall.Seconds())
		wallPerSim = append(wallPerSim, run.wall.Seconds()/run.horizon.Seconds())
		return nil
	}); err != nil {
		return nil, err
	}
	reps := len(eventRates)
	r.Attempted = int(first.configured) * reps
	configured := float64(first.configured)
	if !o.trace {
		r.set("setup_s", median(prepares), len(prepares))
		r.set("sim_events_per_s", median(eventRates), reps)
		r.set("sim_allocs_per_simsec", configured/first.horizon.Seconds(), reps)
		return r, nil
	}
	r.set("core.wall_s_per_simsec", median(wallPerSim), reps)
	r.set("core.events_per_alloc", float64(first.events)/configured, reps)
	r.set("core.msgs_per_alloc", float64(first.messages)/configured, reps)
	if err := runProbes(r, rec); err != nil {
		return nil, err
	}
	return r, finishTrace(r, rec, o.dir)
}
