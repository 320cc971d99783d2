package experiment

import (
	"reflect"
	"testing"

	"quorumconf/internal/radio"
	"quorumconf/internal/workload"
)

func TestSplitMalicious(t *testing.T) {
	active, droppers := splitMalicious(6)
	wantActive := []radio.NodeID{0, 1, 3, 4}
	wantDroppers := []radio.NodeID{2, 5}
	if len(active) != len(wantActive) || len(droppers) != len(wantDroppers) {
		t.Fatalf("split(6) = %v / %v, want %v / %v", active, droppers, wantActive, wantDroppers)
	}
	for i, id := range wantActive {
		if active[i] != id {
			t.Errorf("active[%d] = %d, want %d", i, active[i], id)
		}
	}
	for i, id := range wantDroppers {
		if droppers[i] != id {
			t.Errorf("droppers[%d] = %d, want %d", i, droppers[i], id)
		}
	}
	if a, d := splitMalicious(0); len(a) != 0 || len(d) != 0 {
		t.Errorf("split(0) = %v / %v, want empty", a, d)
	}
}

func TestByzIDsIncludeSybils(t *testing.T) {
	sc := workload.Scenario{
		NumNodes:  10,
		Byzantine: workload.Byzantine{SybilNodes: []radio.NodeID{1, 4}},
	}
	ids := byzIDs(sc)
	if len(ids) != 10+2*3 {
		t.Fatalf("byzIDs returned %d identities, want 16", len(ids))
	}
	sybils := 0
	for _, id := range ids {
		if id >= workload.SybilIDBase {
			sybils++
		}
	}
	if sybils != 6 {
		t.Errorf("sybil identities = %d, want 6", sybils)
	}
}

// TestByzantineSweepShape runs a small sweep end to end: three figures with
// one series per protocol and one point per k, and a clean honest column.
func TestByzantineSweepShape(t *testing.T) {
	run, _ := Lookup("byzantine")
	figs, err := run(Config{Rounds: 2, MidSize: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures = %d, want 3", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 4 {
			t.Errorf("%s: series = %d, want 4 protocols", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) != len(byzantineKs) {
				t.Errorf("%s/%s: points = %d, want %d", f.ID, s.Name, len(s.Points), len(byzantineKs))
			}
		}
	}
	// The honest column of the conflict figure must be exactly zero for
	// every protocol: uniqueness holds without insiders.
	for _, s := range figs[0].Series {
		if s.Points[0].Y != 0 {
			t.Errorf("honest conflict rate for %s = %v, want 0", s.Name, s.Points[0].Y)
		}
	}
}

// TestByzantineSweepDeterministic pins that the sweep is a pure function
// of its configuration, like every other figure.
func TestByzantineSweepDeterministic(t *testing.T) {
	run, _ := Lookup("byzantine")
	sweep := func() []Figure {
		figs, err := run(Config{Rounds: 2, MidSize: 30})
		if err != nil {
			t.Fatal(err)
		}
		return figs
	}
	if a, b := sweep(), sweep(); !reflect.DeepEqual(a, b) {
		t.Errorf("sweep diverged:\n%+v\n%+v", a, b)
	}
}
