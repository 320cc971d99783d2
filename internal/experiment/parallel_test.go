package experiment

import (
	"reflect"
	"testing"
	"time"
)

// determinismConfig keeps multiple rounds so reduction order actually
// matters, while staying small enough for -race CI runs.
func determinismConfig(workers int) Config {
	return Config{
		Rounds:          2,
		BaseSeed:        7,
		Sizes:           []int{60, 100},
		Ranges:          []float64{120, 200},
		Speeds:          []float64{10, 30},
		AbruptFractions: []float64{0.1, 0.4},
		MidSize:         60,
		ArrivalInterval: 2 * time.Second,
		Workers:         workers,
	}
}

// TestParallelSweepsBitIdentical pins the worker-pool determinism
// contract: the same figure run serially (Workers=1) and with a saturated
// pool (Workers=8) must produce byte-identical CSV output and deeply equal
// Figure values (the CSV omits error bars, so DeepEqual also guards the
// stddev reduction order). CI runs this under -race, which doubles as the
// data-race check on the fan-out machinery.
func TestParallelSweepsBitIdentical(t *testing.T) {
	for _, id := range []string{"fig5", "fig8", "fig13"} {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			serial := figure(t, determinismConfig(1), id)
			parallel := figure(t, determinismConfig(8), id)
			if s, p := serial.CSV(), parallel.CSV(); s != p {
				t.Errorf("CSV output differs between Workers=1 and Workers=8:\nserial:\n%s\nparallel:\n%s", s, p)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("figures differ beyond CSV (error bars or metadata):\nserial:   %+v\nparallel: %+v", serial, parallel)
			}
		})
	}
}

// TestParallelRunsRepeatable guards against hidden shared state between
// concurrent simulations: two identical parallel runs must agree with each
// other.
func TestParallelRunsRepeatable(t *testing.T) {
	a := figure(t, determinismConfig(8), "fig5")
	b := figure(t, determinismConfig(8), "fig5")
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated parallel runs differ:\n%+v\n%+v", a, b)
	}
}
