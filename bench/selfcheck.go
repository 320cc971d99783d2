package main

import (
	"fmt"
	"io"
	"strings"

	"quorumconf/internal/experiment"
)

// selfcheckRuns is how many runs make one set. The two sets' runs
// alternate (1 2 1 2 1 2), so a drift of the sandbox lands on both, and
// each set's value is the median of its runs.
const selfcheckRuns = 3

// exactPerLayer are the simulator's deterministic counts: two runs of one
// seed must agree on them bit for bit.
var exactPerLayer = []string{"core.events_per_alloc", "core.msgs_per_alloc"}

// runSelfcheck runs every workload as two interleaved sets on this build,
// prints the sets side by side and fails if any gated end-to-end metric
// differs between them by more than its own bound (or at all, for the
// deterministic ones). At seed 1 it also holds the rebuilt sim_churn
// scenario against experiment.AllocThroughput.
func runSelfcheck(w io.Writer, o runOpts) error {
	o.trace, o.dir, o.epoch = false, "", -1
	var bad []string
	row := func(workload, metric, unit string, a, b float64, bound, verdict string) {
		fmt.Fprintf(w, "%-16s %-22s %-6s %14.6g %14.6g %9s  %s\n", workload, metric, unit, a, b, bound, verdict)
	}
	fmt.Fprintf(w, "%-16s %-22s %-6s %14s %14s %9s  %s\n", "workload", "metric", "unit", "set 1", "set 2", "bound", "verdict")
	for _, wl := range workloads() {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = make(map[string][]float64)
		}
		for run := 0; run < 2*selfcheckRuns; run++ {
			r, err := wl.run(o)
			if err != nil {
				return err
			}
			for name, v := range r.Metrics {
				sets[run%2][name] = append(sets[run%2][name], v.V)
			}
		}
		for _, m := range endToEnd {
			if !m.on(wl.name) {
				continue
			}
			if len(sets[0][m.Name]) != selfcheckRuns || len(sets[1][m.Name]) != selfcheckRuns {
				return fmt.Errorf("workload %s did not measure %s on every run", wl.name, m.Name)
			}
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			bound := fmt.Sprintf("%.0f%%", m.Bound*100)
			switch {
			case m.Exact:
				bound = "exact"
			case !m.gated(wl.name):
				bound = "ungated"
			case m.Bound == 0:
				bound = fmt.Sprintf("%g abs", m.Abs)
			}
			verdict := "ok"
			// Either set may be the slow one, so the bound applies both ways.
			if m.gated(wl.name) && (m.worse(a, b) || m.worse(b, a)) {
				verdict = "DIFFERS"
				bad = append(bad, wl.name+"/"+m.Name)
			}
			row(wl.name, m.Name, m.Unit, a, b, bound, verdict)
		}
		if wl.name != wlSimChurn {
			continue
		}
		traced := o
		traced.trace, traced.maxEpochs = true, 1
		var counts [2]*result
		for i := range counts {
			r, err := wl.run(traced)
			if err != nil {
				return err
			}
			counts[i] = r
		}
		for _, name := range exactPerLayer {
			a, b := counts[0].Metrics[name], counts[1].Metrics[name]
			verdict := "ok"
			if a.V != b.V {
				verdict = "DIFFERS"
				bad = append(bad, wl.name+"/"+name)
			}
			row(wl.name, name, a.Unit, a.V, b.V, "exact", verdict)
		}
		if o.seed == 1 {
			want, err := experiment.AllocThroughput(experiment.DefaultAllocThroughput(false), simVariant())
			if err != nil {
				return err
			}
			if got := sets[0]["sim_allocs_per_simsec"][0]; got != want {
				return fmt.Errorf("sim_churn rebuilt scenario gives %v allocs/simsec, experiment.AllocThroughput %v", got, want)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("selfcheck: two sets of the same build disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}
