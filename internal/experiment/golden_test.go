package experiment

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current sweeps")

// goldenConfig is small enough for -race CI but keeps two rounds per point,
// so the stddev and the order of every reduction show in the output, and
// two workers, so the fan-out runs.
func goldenConfig() Config {
	return Config{
		Rounds:          2,
		BaseSeed:        7,
		Sizes:           []int{40, 60},
		Ranges:          []float64{120, 200},
		Speeds:          []float64{10, 30},
		AbruptFractions: []float64{0.1, 0.4},
		MidSize:         40,
		ArrivalInterval: 2 * time.Second,
		Workers:         2,
	}
}

// goldenFigures runs every row of the catalog, in catalog order.
func goldenFigures(t *testing.T) []Figure {
	t.Helper()
	cfg := goldenConfig()
	cfg.setDefaults()
	var figs []Figure
	for _, r := range catalog(cfg) {
		f, err := cfg.run(r.id)
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, f...)
	}
	return figs
}

// TestGoldenFigures pins every figure's values bit for bit: X, Y and Err
// are compared as JSON, which prints each float64 at full precision. A
// refactor of the sweep machinery must leave these files unchanged; an
// intended output change regenerates them with
// go test ./internal/experiment -run TestGoldenFigures -update.
func TestGoldenFigures(t *testing.T) {
	figs := goldenFigures(t)
	if len(figs) != 18 {
		t.Fatalf("%d figures, want 18", len(figs))
	}
	for _, f := range figs {
		got, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		path := filepath.Join("testdata", "golden", f.ID+".json")
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s changed:\n got: %s\nwant: %s", f.ID, got, want)
		}
	}
}
