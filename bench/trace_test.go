package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	us := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{ID: 1, Name: "root", Layer: "bench", Start: 0, End: us(100)},
		// Two children overlapping on [30,40]: together they cover [10,60].
		{ID: 2, Parent: 1, Name: "a", Layer: "ctl", Start: us(10), End: us(40)},
		{ID: 3, Parent: 1, Name: "b", Layer: "ctl", Start: us(30), End: us(60)},
		// A child sticking out of its parent is clipped to [90,100].
		{ID: 4, Parent: 1, Name: "c", Layer: "daemon", Start: us(90), End: us(120)},
		// A child fully inside another child's interval adds no coverage.
		{ID: 5, Parent: 1, Name: "d", Layer: "daemon", Start: us(15), End: us(20)},
		// A grandchild takes its time from span 2, not from the root.
		{ID: 6, Parent: 2, Name: "e", Layer: "daemon", Start: us(12), End: us(22)},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: us(100 - 50 - 10), // [10,60] and [90,100] covered
		2: us(30 - 10),
		3: us(30),
		4: us(30),
		5: us(5),
		6: us(10),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestLayersAccountForRoots(t *testing.T) {
	rec := newRecorder()
	for op := 0; op < 3; op++ {
		root := rec.begin(0, "bench.op", "bench")
		call := rec.begin(root, "ctl.Allocate", "ctl")
		rec.end(call, op == 2)
		rec.end(root, op == 2)
		s := rec.snapshot()[call-1]
		// Daemon-side segments arrive after the fact, inside the call.
		third := (s.End - s.Start) / 3
		rec.add(span{Parent: call, Name: "daemon.ballot", Layer: "daemon", Start: s.Start, End: s.Start + third, Retried: 1})
		rec.add(span{Parent: call, Name: "daemon.reply", Layer: "daemon", Start: s.Start + third, End: s.End})
	}
	spans := rec.snapshot()
	for _, s := range spans {
		if s.Parent == 0 && s.Op != s.ID {
			t.Errorf("root span %d has op %d", s.ID, s.Op)
		}
		if s.Parent != 0 && s.Op != spans[s.Parent-1].Op {
			t.Errorf("span %d has op %d, its parent %d", s.ID, s.Op, spans[s.Parent-1].Op)
		}
	}
	rep := buildLayers(spans, map[string]float64{"daemon.ballots_per_alloc": 1.5, "gen.late_p99_ms": 2})
	if diff := rep.SelfSumUS - rep.RootUS; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("self times sum to %v us, roots to %v us", rep.SelfSumUS, rep.RootUS)
	}
	d := rep.Layers["daemon"]
	if d == nil || d.Count != 6 || d.Retried != 3 || d.Spans["daemon.ballot"].Count != 3 {
		t.Errorf("daemon layer = %+v", d)
	}
	if d.Ratios["daemon.ballots_per_alloc"] != 1.5 {
		t.Errorf("daemon ratios = %v", d.Ratios)
	}
	if c := rep.Layers["ctl"]; c == nil || c.Failed != 1 || c.SelfUS > c.BusyUS {
		t.Errorf("ctl layer = %+v", c)
	}
	if g := rep.Layers["gen"]; g == nil || g.Count != 0 || g.Ratios["gen.late_p99_ms"] != 2 {
		t.Errorf("gen layer = %+v", g)
	}
}

func TestNilRecorderIsOff(t *testing.T) {
	var rec *recorder
	id := rec.begin(0, "bench.op", "bench")
	rec.end(id, false)
	if id != 0 || rec.add(span{}) != 0 || rec.snapshot() != nil {
		t.Errorf("a nil recorder must record nothing")
	}
}
