package main

import (
	"bytes"
	"testing"

	"quorumconf/internal/experiment"
)

// TestSmokeOwner3 runs one small owner3 epoch end to end — real daemons on
// loopback UDP, the oracle, the pooled metrics — and checks that every
// end-to-end metric the workload owes is present, positive where it must
// be, and printable under the driver's summary.
func TestSmokeOwner3(t *testing.T) {
	r, err := runClosedLoop(closedLoopSpecs[wlOwner3], runOpts{seed: 1, seconds: 1, epoch: -1, ops: 300, maxEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEnd {
		if !m.on(wlOwner3) {
			continue
		}
		v, ok := r.Metrics[m.Name]
		if !ok {
			t.Errorf("owner3 did not report %s", m.Name)
			continue
		}
		if v.Unit != m.Unit {
			t.Errorf("%s reported in %q, want %q", m.Name, v.Unit, m.Unit)
		}
		if m.Name != "alloc_fail_share" && v.V <= 0 {
			t.Errorf("%s = %v, want positive", m.Name, v.V)
		}
	}
	if r.Attempted != 300 || r.Failed != 0 {
		t.Errorf("attempted %d, failed %d; want 300, 0", r.Attempted, r.Failed)
	}
	if got := r.Metrics["msgs_per_alloc"].V; got < 7 || got > 12 {
		t.Errorf("owner3 msgs_per_alloc = %v, want about 8 (plus boot traffic over 300 allocations)", got)
	}
	if err := r.print(&bytes.Buffer{}, driverEndToEnd); err != nil {
		t.Error(err)
	}
}

// TestTracedEpochSpans runs one small traced member5 epoch and checks the
// span tree: one bench.op root per operation, ctl.Allocate under it, the
// three daemon-side segments under that, and self times that account for
// the roots.
func TestTracedEpochSpans(t *testing.T) {
	const ops = 100
	rec := newRecorder()
	if _, err := runClosedEpoch(closedLoopSpecs[wlMember5], 1, 0, ops, rec); err != nil {
		t.Fatal(err)
	}
	spans := rec.snapshot()
	count := make(map[string]int)
	for _, s := range spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, name := range []string{"bench.op", "ctl.Allocate", "daemon.forward", "daemon.ballot", "daemon.reply"} {
		if count[name] != ops {
			t.Errorf("%d %s spans, want %d", count[name], name, ops)
		}
	}
	rep := buildLayers(spans, nil)
	if gap := (rep.SelfSumUS - rep.RootUS) / rep.RootUS; gap > 0.05 || gap < -0.05 {
		t.Errorf("self times sum to %.0f us, roots to %.0f us", rep.SelfSumUS, rep.RootUS)
	}
	if d := rep.Layers["daemon"]; d == nil || d.SelfUS <= 0 {
		t.Errorf("daemon layer has no self time: %+v", d)
	}
}

// TestSimChurnMatchesExperiment holds the rebuilt scenario against
// experiment.AllocThroughput on the short configuration (-selfcheck does
// the same at full size).
func TestSimChurnMatchesExperiment(t *testing.T) {
	cfg := experiment.DefaultAllocThroughput(true)
	run, err := runSimOnce(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := experiment.AllocThroughput(cfg, simVariant())
	if err != nil {
		t.Fatal(err)
	}
	if got := float64(run.configured) / run.horizon.Seconds(); got != want {
		t.Errorf("rebuilt scenario: %v allocs/simsec, experiment.AllocThroughput: %v", got, want)
	}
	if run.events == 0 || run.messages == 0 {
		t.Errorf("run counted %d events, %d messages", run.events, run.messages)
	}
}
