package quorumconf

import (
	"strings"
	"testing"
	"time"

	"quorumconf/internal/experiment"
)

// benchConfig keeps one benchmark iteration at laptop scale while still
// sweeping the paper's parameter ranges. Raise -rounds via cmd/quorumsim
// for publication-grade averages (the paper used 1000 rounds per point).
func benchConfig() experiment.Config {
	return experiment.Config{
		Rounds:          1,
		BaseSeed:        1,
		Sizes:           []int{50, 100},
		Ranges:          []float64{120, 200},
		Speeds:          []float64{10, 20},
		AbruptFractions: []float64{0.1, 0.3},
		MidSize:         100,
		ArrivalInterval: 2 * time.Second,
	}
}

// BenchmarkFig4Layout regenerates the Figure 4 random layout (100 nodes,
// 1km x 1km) with the cluster structure.
func BenchmarkFig4Layout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		layout, err := experiment.GenerateLayout(benchConfig(), 100, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(layout.Heads) == 0 {
			b.Fatal("no heads in layout")
		}
	}
}

// BenchmarkTable1Trace regenerates the Table 1 cluster-head configuration
// message exchange.
func BenchmarkTable1Trace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		events, err := experiment.Table1Trace()
		if err != nil {
			b.Fatal(err)
		}
		if len(events) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkFigure regenerates each row of the figure catalog (Figs 5-14,
// the ablations, the loss extension and the byzantine sweep) as one
// sub-benchmark named after its row, through experiment.Lookup like
// quorumsim -fig. Rounds and grid points fan out over the worker pool
// (Workers defaults to GOMAXPROCS); fig7-serial pins the Workers=1 baseline
// for the sweep engine, so its ratio to fig7 is the pool's speedup on this
// host. Results are bit-identical either way.
func BenchmarkFigure(b *testing.B) {
	_, keys := experiment.Lookup("")
	for _, entry := range keys {
		id, _, _ := strings.Cut(entry, "/")
		if id == "all" || id == "ablations" {
			continue // the groups rerun the rows
		}
		b.Run(id, func(b *testing.B) { benchRow(b, id, benchConfig()) })
	}
	serial := benchConfig()
	serial.Workers = 1
	b.Run("fig7-serial", func(b *testing.B) { benchRow(b, "fig7", serial) })
}

func benchRow(b *testing.B, id string, cfg experiment.Config) {
	run, _ := experiment.Lookup(id)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg.BaseSeed = int64(i + 1)
		figs, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) == 0 || len(figs[0].Series) == 0 {
			b.Fatal("figure produced no series")
		}
	}
}

// BenchmarkAllocThroughput: allocations per simulated second under
// sustained churn for the three allocation-engine variants — serial
// ballots (BallotWindow=1), the pipelined window, and pipelined plus the
// affirmative-vote cache. The allocs/simsec metric is the headline number
// of the throughput engine; bench's sim_churn workload tracks the last
// variant end to end. Short mode (-short) runs the CI smoke workload.
func BenchmarkAllocThroughput(b *testing.B) {
	cfg := experiment.DefaultAllocThroughput(testing.Short())
	for _, v := range experiment.AllocVariants() {
		b.Run(v.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rate, err := experiment.AllocThroughput(cfg, v)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rate, "allocs/simsec")
			}
		})
	}
}
