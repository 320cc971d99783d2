// Command quorumbench is the repository's benchmark. It boots in-process
// quorumd fleets on loopback UDP, drives them through the public surface
// only (ctl.Client, Daemon.Kill/Metrics/Histograms/Trace), checks every
// epoch's outputs, and prints each metric by name and unit as JSON. See
// README.md in this directory for the workloads, the metrics and how they
// are expected to interact.
//
//	go run -C bench . -workload member5 -seed 1 -seconds 20 -trace 0
//
// prints the end-to-end metrics of one run; -trace 1 repeats the workload
// with spans recorded around every call the benchmark makes into a layer
// and prints the per-layer metrics instead. The last line of standard
// output is one JSON object {correct, attempted, failed, metrics}; a
// correctness violation prints a one-line repro to standard error, prints
// no metrics and exits non-zero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Float64("seconds", defaultSeconds, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics, tracing off")
	dir := flag.String("tracedir", "", "with -trace 1: write spans.jsonl and layers.json into this directory")
	epoch := flag.Int("epoch", -1, "run only this epoch of the workload (the repro a correctness violation prints)")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and fail if the two sets disagree by more than the metrics' own bounds")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "quorumbench: nproc=%d GOMAXPROCS=%d %s loopback UDP\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if err := run(*workload, *selfcheck, runOpts{
		seed: *seed, seconds: *seconds, trace: *trace != 0, dir: *dir, epoch: *epoch,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "quorumbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func run(workload string, selfcheck bool, o runOpts) error {
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", o.seconds)
	}
	if selfcheck {
		return runSelfcheck(os.Stdout, o)
	}
	w, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames(), ", "))
	}
	r, err := w.run(o)
	if err != nil {
		return err
	}
	summary := driverEndToEnd
	if o.trace {
		summary = driverPerLayer()
	}
	if !contains(driverWorkloads, w.name) {
		summary = nil // a workload BENCHMARK.json does not list prints its own metrics only
	}
	return r.print(os.Stdout, summary)
}
