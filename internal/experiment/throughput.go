package experiment

import (
	"fmt"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/core"
	"quorumconf/internal/mobility"
	"quorumconf/internal/protocol"
	"quorumconf/internal/workload"
)

// AllocVariant names one allocation-engine configuration for the
// throughput comparison: the serial baseline (one common ballot in
// flight), the pipelined window, and the pipelined window with the
// affirmative-vote cache on top.
type AllocVariant struct {
	Name string
	// Window is core.Params.BallotWindow (1 = serial baseline).
	Window int
	// TTL is core.Params.VoteCacheTTL (0 = cache disabled).
	TTL time.Duration
}

// AllocVariants returns the three engine configurations the throughput
// benchmark (BenchmarkAllocThroughput) compares, serial first; bench's
// sim_churn workload runs the last.
func AllocVariants() []AllocVariant {
	return []AllocVariant{
		{Name: "alloc_serial", Window: 1},
		{Name: "alloc_pipelined", Window: 8},
		{Name: "alloc_pipelined_cache", Window: 8, TTL: 30 * time.Second},
	}
}

// AllocThroughputConfig scales the sustained-churn workload behind the
// allocation-throughput measurement. Zero values take the defaults of
// DefaultAllocThroughput(false).
type AllocThroughputConfig struct {
	Seed          int64
	NumNodes      int
	ChurnRate     float64
	ChurnDuration time.Duration
	ChurnLifetime time.Duration
	SettleTime    time.Duration
}

// DefaultAllocThroughput sizes the workload; short gives the CI smoke
// variant (a few hundred joins), full offers over a thousand joins at a
// rate that saturates a serial allocator.
func DefaultAllocThroughput(short bool) AllocThroughputConfig {
	if short {
		return AllocThroughputConfig{
			Seed:          1,
			NumNodes:      10,
			ChurnRate:     30,
			ChurnDuration: 4 * time.Second,
			ChurnLifetime: 2 * time.Second,
			SettleTime:    5 * time.Second,
		}
	}
	return AllocThroughputConfig{
		Seed:          1,
		NumNodes:      20,
		ChurnRate:     80,
		ChurnDuration: 8 * time.Second,
		ChurnLifetime: 3 * time.Second,
		SettleTime:    6 * time.Second,
	}
}

func (c *AllocThroughputConfig) setDefaults() {
	d := DefaultAllocThroughput(false)
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.NumNodes == 0 {
		c.NumNodes = d.NumNodes
	}
	if c.ChurnRate == 0 {
		c.ChurnRate = d.ChurnRate
	}
	if c.ChurnDuration == 0 {
		c.ChurnDuration = d.ChurnDuration
	}
	if c.ChurnLifetime == 0 {
		c.ChurnLifetime = d.ChurnLifetime
	}
	if c.SettleTime == 0 {
		c.SettleTime = d.SettleTime
	}
}

// AllocThroughput runs the sustained-churn scenario against one engine
// variant and returns successful configurations per simulated second.
//
// The initial network spreads over the area so the allocators hold
// multi-hop QDSets; churn then concentrates on one spot, so every join
// queues on the same allocator. With a serial ballot window that
// allocator's throughput is bounded by one quorum round trip per
// address and the queue backs up past the horizon; pipelining overlaps
// the round trips and the vote cache removes them, which is exactly the
// gap this number measures.
func AllocThroughput(cfg AllocThroughputConfig, v AllocVariant) (float64, error) {
	cfg.setDefaults()
	spot := mobility.Point{X: 300, Y: 300}
	sc := workload.Scenario{
		Seed:            cfg.Seed,
		NumNodes:        cfg.NumNodes,
		Area:            mobility.Rect{Width: 600, Height: 600},
		ArrivalInterval: 2 * time.Second,
		// A loaded channel's per-hop latency, not the simulator's
		// optimistic 5ms default: the multi-hop quorum round trip is
		// what pipelining overlaps and the vote cache removes, so the
		// measurement keeps it realistic.
		PerHopDelay:   15 * time.Millisecond,
		SettleTime:    cfg.SettleTime,
		ChurnRate:     cfg.ChurnRate,
		ChurnDuration: cfg.ChurnDuration,
		ChurnLifetime: cfg.ChurnLifetime,
		ChurnSpot:     &spot,
		ChurnRadius:   80,
	}
	build := func(rt *protocol.Runtime) (protocol.Protocol, error) {
		return core.New(rt, core.Params{
			Space:        addrspace.Block{Lo: 1, Hi: 4096},
			BallotWindow: v.Window,
			VoteCacheTTL: v.TTL,
		})
	}
	res, err := workload.Run(sc, build)
	if err != nil {
		return 0, fmt.Errorf("experiment: alloc throughput %s: %w", v.Name, err)
	}
	configured := res.Metrics().Counter(core.CounterConfigured)
	return float64(configured) / res.Horizon.Seconds(), nil
}
