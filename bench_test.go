package quorumconf

import (
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

func benchFigure(b *testing.B, run func(experiment.Config) (experiment.Figure, error)) {
	b.Helper()
	benchFigureCfg(b, benchConfig(), run)
}

func benchFigureCfg(b *testing.B, cfg experiment.Config, run func(experiment.Config) (experiment.Figure, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.BaseSeed = int64(i + 1)
		fig, err := run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(fig.Series) == 0 {
			b.Fatal("figure produced no series")
		}
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

// BenchmarkFig5ConfigLatencyVsSize: configuration latency vs network size,
// quorum vs MANETconf (Figure 5).
func BenchmarkFig5ConfigLatencyVsSize(b *testing.B) { benchFigure(b, experiment.Fig5) }

// BenchmarkFig6ConfigLatencyVsRange: configuration latency vs transmission
// range (Figure 6).
func BenchmarkFig6ConfigLatencyVsRange(b *testing.B) { benchFigure(b, experiment.Fig6) }

// BenchmarkFig7LatencySurface: quorum latency over the (tr, nn) grid
// (Figure 7). Rounds and grid points fan out over the worker pool
// (Workers defaults to GOMAXPROCS).
func BenchmarkFig7LatencySurface(b *testing.B) { benchFigure(b, experiment.Fig7) }

// BenchmarkFig7LatencySurfaceSerial pins the Workers=1 baseline for the
// sweep engine. The ratio to BenchmarkFig7LatencySurface is the pool's
// speedup on this host; results are bit-identical either way.
func BenchmarkFig7LatencySurfaceSerial(b *testing.B) {
	cfg := benchConfig()
	cfg.Workers = 1
	benchFigureCfg(b, cfg, experiment.Fig7)
}

// BenchmarkFig8ConfigOverhead: configuration message overhead vs size,
// quorum vs Mohsin–Prakash (Figure 8).
func BenchmarkFig8ConfigOverhead(b *testing.B) { benchFigure(b, experiment.Fig8) }

// BenchmarkFig9DepartureOverhead: departure message overhead vs size
// (Figure 9).
func BenchmarkFig9DepartureOverhead(b *testing.B) { benchFigure(b, experiment.Fig9) }

// BenchmarkFig10Maintenance: movement+departure maintenance overhead vs
// size, both location-update schemes vs the C-tree baseline (Figure 10).
func BenchmarkFig10Maintenance(b *testing.B) { benchFigure(b, experiment.Fig10) }

// BenchmarkFig11SpeedSweep: movement overhead vs node speed (Figure 11).
func BenchmarkFig11SpeedSweep(b *testing.B) { benchFigure(b, experiment.Fig11) }

// BenchmarkFig12IPSpace: QDSet size and IP-space extension vs range
// (Figure 12).
func BenchmarkFig12IPSpace(b *testing.B) { benchFigure(b, experiment.Fig12) }

// BenchmarkFig13Reliability: IP state lost vs abrupt-leave fraction,
// quorum replication vs C-root reporting (Figure 13).
func BenchmarkFig13Reliability(b *testing.B) { benchFigure(b, experiment.Fig13) }

// BenchmarkFig14Reclamation: address reclamation overhead vs size
// (Figure 14).
func BenchmarkFig14Reclamation(b *testing.B) { benchFigure(b, experiment.Fig14) }

// Ablation benches for the design choices called out in DESIGN.md §5.

// BenchmarkAblationDynamicLinear: dynamic linear voting on/off.
func BenchmarkAblationDynamicLinear(b *testing.B) {
	benchFigure(b, experiment.AblationDynamicLinear)
}

// BenchmarkAblationBorrowing: QuorumSpace borrowing on/off under a join
// wave.
func BenchmarkAblationBorrowing(b *testing.B) { benchFigure(b, experiment.AblationBorrowing) }

// BenchmarkAblationAllocatorChoice: nearest vs largest-block allocator.
func BenchmarkAblationAllocatorChoice(b *testing.B) {
	benchFigure(b, experiment.AblationAllocatorChoice)
}

// BenchmarkAblationQuorumShrink: Td shrink-timeout sweep.
func BenchmarkAblationQuorumShrink(b *testing.B) {
	benchFigure(b, experiment.AblationQuorumShrink)
}

// BenchmarkExtensionLossTolerance: configuration success under per-hop
// message loss (extension beyond the paper's reliable-delivery
// assumption).
func BenchmarkExtensionLossTolerance(b *testing.B) {
	benchFigure(b, experiment.ExtensionLossTolerance)
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
