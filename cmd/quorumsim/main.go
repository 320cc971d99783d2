// Command quorumsim regenerates the data behind any table or figure of
// the paper's evaluation (§VI).
//
// Usage:
//
//	quorumsim -fig 5                 # one figure
//	quorumsim -fig all               # figures 5..14
//	quorumsim -fig table1            # Table 1 message trace
//	quorumsim -fig 4 -nodes 100      # Figure 4 layout
//	quorumsim -fig ablations         # design-choice ablation studies
//	quorumsim -fig 5 -rounds 50      # more rounds per data point
//	quorumsim -fig all -parallel 8   # sweep rounds on an 8-worker pool
//
// Output is a plain text table per figure: one row per x value, one column
// per series — directly consumable by gnuplot or a spreadsheet. Results
// are bit-identical for every -parallel value, including the default.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
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
	figFlag := fs.String("fig", "all", "figure to regenerate: 4..14, table1, all, ablations, loss, byzantine")
	format := fs.String("format", "table", "output format: table or csv")
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
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown -format %q (want table or csv)", *format)
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
	render := func(f experiment.Figure) string {
		if *format == "csv" {
			return f.CSV()
		}
		return f.String()
	}

	switch strings.ToLower(*figFlag) {
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
		fmt.Fprint(out, layout.String())
		return nil
	case "all":
		figs, err := experiment.All(cfg)
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Fprintln(out, render(f))
		}
		return nil
	case "ablations", "ablation":
		figs, err := experiment.Ablations(cfg)
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Fprintln(out, render(f))
		}
		return nil
	case "loss", "ext-loss":
		f, err := experiment.ExtensionLossTolerance(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, render(f))
		return nil
	case "byzantine", "byz":
		res, err := experiment.ByzantineSweep(cfg, nil)
		if err != nil {
			return err
		}
		for _, f := range res.Figures {
			fmt.Fprintln(out, render(f))
		}
		return nil
	}

	runners := map[string]func(experiment.Config) (experiment.Figure, error){
		"5": experiment.Fig5, "6": experiment.Fig6, "7": experiment.Fig7,
		"8": experiment.Fig8, "9": experiment.Fig9, "10": experiment.Fig10,
		"11": experiment.Fig11, "12": experiment.Fig12, "13": experiment.Fig13,
		"14": experiment.Fig14,
	}
	key := strings.TrimPrefix(strings.ToLower(*figFlag), "fig")
	runner, ok := runners[key]
	if !ok {
		return fmt.Errorf("unknown figure %q (want 4..14, table1, all, ablations)", *figFlag)
	}
	f, err := runner(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, render(f))
	return nil
}
