// Command quorumsim regenerates the data behind any table or figure of
// the paper's evaluation (§VI).
//
// Usage:
//
//	quorumsim -fig 5                 # one figure
//	quorumsim -fig all               # figures 5..14
//	quorumsim -fig table1            # Table 1 message trace
//	quorumsim -fig 4 -nodes 100      # Figure 4 layout
//	quorumsim -fig 4 -format svg     # Figure 4 drawing
//	quorumsim -fig ablations         # design-choice ablation studies
//	quorumsim -fig ablation-td       # any catalog entry by its figure ID
//	quorumsim -fig 5 -rounds 50      # more rounds per data point
//	quorumsim -fig all -parallel 8   # sweep rounds on an 8-worker pool
//
// Output is a plain text table per figure: one row per x value, one column
// per series — directly consumable by gnuplot or a spreadsheet. A catalog
// figure also renders as CSV (-format csv), and the Fig 4 layout as an SVG
// drawing (-format svg); Table 1 renders only as a table. Results are
// bit-identical for every -parallel value, including the default.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"quorumconf/internal/experiment"
	"quorumconf/internal/obs"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0) // -h is a successful interaction, not a failure
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "quorumsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("quorumsim", flag.ContinueOnError)
	_, keys := experiment.Lookup("")
	figFlag := fs.String("fig", "all", "figure to regenerate: "+figKeys(keys))
	format := fs.String("format", "table", "output format: table, csv (catalog figures) or svg (-fig 4)")
	rounds := fs.Int("rounds", 3, "simulation rounds per data point (paper: 1000)")
	seed := fs.Int64("seed", 1, "base random seed")
	nodes := fs.Int("nodes", 100, "node count for -fig 4 layouts")
	arrival := fs.Duration("arrival", 2*time.Second, "interval between node arrivals")
	parallel := fs.Int("parallel", 0, "sweep worker pool size (0 = GOMAXPROCS, 1 = serial)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	traceOut := fs.String("trace", "", "write structured protocol events to this JSONL file (use -parallel 1 for a causally ordered stream)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds %d: need at least one round", *rounds)
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes %d: need at least one node", *nodes)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: worker count cannot be negative", *parallel)
	}
	key := strings.ToLower(*figFlag)
	runFig, _ := experiment.Lookup(key)
	formats := []string{"table", "csv"}
	switch key {
	case "table1", "t1":
		formats = []string{"table"}
	case "4", "fig4", "layout":
		formats = []string{"table", "svg"}
	default:
		if runFig == nil {
			return fmt.Errorf("unknown figure %q (want %s)", *figFlag, figKeys(keys))
		}
	}
	if !slices.Contains(formats, *format) {
		return fmt.Errorf("-format %q: -fig %s renders as %s", *format, *figFlag, strings.Join(formats, " or "))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Fail on an unwritable path up front, not after minutes of sweeps.
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer func() {
			runtime.GC() // flush unreachable objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "quorumsim: -memprofile:", err)
			}
			f.Close()
		}()
	}
	cfg := experiment.Config{
		Rounds:          *rounds,
		BaseSeed:        *seed,
		ArrivalInterval: *arrival,
		Workers:         *parallel,
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		sink := obs.NewJSONLWriter(f)
		// Events are pre-stamped with virtual sim time by each runtime, so
		// the tracer's own clock stays at zero.
		cfg.Tracer = obs.NewTracer(func() time.Duration { return 0 }, sink)
		defer func() {
			if err := sink.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "quorumsim: -trace:", err)
			}
			f.Close()
		}()
	}
	switch key {
	case "table1", "t1":
		events, err := experiment.Table1Trace()
		if err != nil {
			return err
		}
		fmt.Fprint(out, experiment.FormatTrace(events))
		return nil
	case "4", "fig4", "layout":
		layout, err := experiment.GenerateLayout(cfg, *nodes, *seed)
		if err != nil {
			return err
		}
		if *format == "svg" {
			fmt.Fprint(out, layout.SVG(150))
		} else {
			fmt.Fprint(out, layout.String())
		}
		return nil
	}
	figs, err := runFig(cfg)
	if err != nil {
		return err
	}
	for _, f := range figs {
		if *format == "csv" {
			fmt.Fprintln(out, f.CSV())
		} else {
			fmt.Fprintln(out, f.String())
		}
	}
	return nil
}

// figKeys lists every -fig key: Table 1 and the Fig 4 layout, which
// quorumsim renders itself, then the figure catalog's.
func figKeys(catalog []string) string {
	return strings.Join(append([]string{"table1/t1", "4/fig4/layout"}, catalog...), ", ")
}
