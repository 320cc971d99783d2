// Package experiment regenerates every table and figure of the paper's
// evaluation (§VI). Every figure is one row of the catalog (catalog.go):
// the parameter sweep over the quorum protocol and the baselines the paper
// compares it against, and how its seeded rounds reduce to the series the
// paper plots. One grid engine (parallel.go) runs every row. The exported
// FigN, Ablation* and ExtensionLossTolerance functions, All, Ablations and
// ByzantineSweep all read the catalog; cmd/quorumsim renders the figures as
// text tables, and bench_test.go at the repository root wraps each one in
// a testing.B benchmark.
package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"quorumconf/internal/addrspace"
	"quorumconf/internal/baseline/buddy"
	"quorumconf/internal/baseline/ctree"
	"quorumconf/internal/baseline/manetconf"
	"quorumconf/internal/core"
	"quorumconf/internal/obs"
	"quorumconf/internal/protocol"
	"quorumconf/internal/workload"
)

// Config scales the sweeps. The zero value gives a laptop-scale run with
// the paper's parameter ranges; raise Rounds toward the paper's 1000 for
// publication-grade averages.
type Config struct {
	// Rounds is the number of seeded repetitions per data point
	// (default 3; the paper uses 1000).
	Rounds int
	// BaseSeed offsets all round seeds.
	BaseSeed int64
	// Sizes is the network-size sweep (default 50..200 step 50, §VI-A).
	Sizes []int
	// Ranges is the transmission-range sweep in meters (default
	// 100..250 step 50; tr=150 elsewhere).
	Ranges []float64
	// Speeds is the node-speed sweep for Fig 11 (default 5..30 step 5).
	Speeds []float64
	// AbruptFractions is the abrupt-departure sweep for Fig 13 (default
	// 5%..50%, §VI-A).
	AbruptFractions []float64
	// Space is the address pool (default 2048 addresses).
	Space addrspace.Block
	// ArrivalInterval compresses or stretches the arrival process
	// (default 2s; shorter means faster wall-clock runs).
	ArrivalInterval time.Duration
	// MidSize is the fixed network size used when a figure sweeps some
	// other parameter (default 100; Fig 11 uses 150 per the paper).
	MidSize int
	// Workers bounds how many simulation rounds run concurrently across a
	// figure (and across figures under All). 0 means GOMAXPROCS; 1 runs
	// fully serial. Figures are bit-identical for every Workers value:
	// seeds are assigned by round index and samples are reduced in index
	// order (see parallel.go).
	Workers int
	// Tracer, when set, receives structured protocol events from every
	// round of every sweep (quorumsim -trace). Rounds run concurrently,
	// so its sinks must be concurrency-safe; events from different rounds
	// interleave (run with Workers=1 for a causally ordered stream).
	Tracer *obs.Tracer

	// sem admits at most Workers concurrently-running simulations. It is
	// created once in setDefaults and shared by every Config copy derived
	// from it, so nested fan-out (All -> figure -> grid point -> round)
	// cannot oversubscribe memory.
	sem chan struct{}
}

func (c *Config) setDefaults() {
	if c.Rounds <= 0 {
		c.Rounds = 3
	}
	if c.BaseSeed == 0 {
		c.BaseSeed = 1
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{50, 100, 150, 200}
	}
	if len(c.Ranges) == 0 {
		c.Ranges = []float64{100, 150, 200, 250}
	}
	if len(c.Speeds) == 0 {
		c.Speeds = []float64{5, 10, 15, 20, 25, 30}
	}
	if len(c.AbruptFractions) == 0 {
		c.AbruptFractions = []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	}
	if c.Space == (addrspace.Block{}) {
		c.Space = addrspace.Block{Lo: 0x0A000001, Hi: 0x0A000001 + 2047}
	}
	if c.ArrivalInterval == 0 {
		c.ArrivalInterval = 2 * time.Second
	}
	if c.MidSize == 0 {
		c.MidSize = 100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.sem == nil {
		c.sem = make(chan struct{}, c.Workers)
	}
}

// Point is one (x, y) sample of a series. Err is the sample standard
// deviation over rounds (0 when Rounds == 1).
type Point struct {
	X, Y float64
	Err  float64
}

// Series is one labelled curve of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is the reproduced data behind one of the paper's plots.
type Figure struct {
	ID     string // "fig5", "table1", ...
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String renders the figure as an aligned text table: one row per X value,
// one column per series.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "# x: %s, y: %s\n", f.XLabel, f.YLabel)
	// Collect the x values in first-series order.
	if len(f.Series) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %18s", s.Name)
	}
	b.WriteByte('\n')
	withErr := false
	for _, s := range f.Series {
		for _, pt := range s.Points {
			if pt.Err > 0 {
				withErr = true
			}
		}
	}
	for i, pt := range f.Series[0].Points {
		fmt.Fprintf(&b, "%12.4g", pt.X)
		for _, s := range f.Series {
			if i >= len(s.Points) {
				fmt.Fprintf(&b, " %18s", "-")
				continue
			}
			if withErr {
				fmt.Fprintf(&b, " %18s", fmt.Sprintf("%.4g ±%.2g", s.Points[i].Y, s.Points[i].Err))
			} else {
				fmt.Fprintf(&b, " %18.4g", s.Points[i].Y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the figure as comma-separated rows with a header line, ready
// for spreadsheets or plotting scripts. The first column is the x value.
func (f Figure) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s — %s\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	b.WriteString(csvEscape(f.XLabel))
	for _, s := range f.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Name))
	}
	b.WriteByte('\n')
	for i, pt := range f.Series[0].Points {
		fmt.Fprintf(&b, "%g", pt.X)
		for _, s := range f.Series {
			b.WriteByte(',')
			if i < len(s.Points) {
				fmt.Fprintf(&b, "%g", s.Points[i].Y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// csvEscape quotes a field when it contains separators.
func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// --- protocol builders ----------------------------------------------------

// A builder makes an arm's protocol for the row's x value; only the arms
// whose parameters follow the x axis (ablation-borrow's tight space, the
// byzantine insiders) read it.
type builder func(x float64) workload.BuildFunc

// quorum builds the quorum protocol over the configured space; extra,
// when set, adjusts its parameters for x.
func (c Config) quorum(extra func(p *core.Params, x float64)) builder {
	return func(x float64) workload.BuildFunc {
		return func(rt *protocol.Runtime) (protocol.Protocol, error) {
			params := core.Params{Space: c.Space}
			if extra != nil {
				extra(&params, x)
			}
			return core.New(rt, params)
		}
	}
}

func (c Config) manetconf() builder {
	return func(float64) workload.BuildFunc {
		return func(rt *protocol.Runtime) (protocol.Protocol, error) {
			return manetconf.New(rt, manetconf.Params{Space: c.Space})
		}
	}
}

func (c Config) buddy() builder {
	return func(float64) workload.BuildFunc {
		return func(rt *protocol.Runtime) (protocol.Protocol, error) {
			return buddy.New(rt, buddy.Params{Space: c.Space})
		}
	}
}

func (c Config) ctree() builder {
	return func(float64) workload.BuildFunc {
		return func(rt *protocol.Runtime) (protocol.Protocol, error) {
			return ctree.New(rt, ctree.Params{Space: c.Space})
		}
	}
}
