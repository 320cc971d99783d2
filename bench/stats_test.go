package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.50, 5}, {0.99, 10}, {0.90, 9}, {0.91, 10}, {0.10, 1}, {0.001, 1}, {1, 10},
	}
	for _, c := range cases {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// 1000 samples: p99 leaves exactly ten beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := percentile(big, 0.99); got != 990 {
		t.Errorf("percentile(1..1000, 0.99) = %v, want 990", got)
	}
}

func TestMedianAndMean(t *testing.T) {
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if in[0] != 9 || in[1] != 1 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := mean([]float64{1, 2, 6}); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

// TestPooledPercentile pins why latencies are pooled: the percentile of
// the pooled samples is not the mean of per-epoch percentiles when one
// epoch holds the whole tail.
func TestPooledPercentile(t *testing.T) {
	calm := make([]float64, 100)
	rough := make([]float64, 100)
	for i := range calm {
		calm[i] = 1
		rough[i] = 1
	}
	for i := 90; i < 100; i++ {
		rough[i] = 50
	}
	all := pool(calm, rough)
	if len(all) != 200 {
		t.Fatalf("pool kept %d of 200 samples", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i] < all[i-1] {
			t.Fatalf("pool is not sorted at %d", i)
		}
	}
	if got := percentile(all, 0.99); got != 50 {
		t.Errorf("pooled p99 = %v, want 50", got)
	}
	if got := percentile(all, 0.95); got != 1 {
		t.Errorf("pooled p95 = %v, want 1 (ten slow samples of 200 are the top 5%%)", got)
	}
	perEpoch := (percentile(pool(calm), 0.95) + percentile(pool(rough), 0.95)) / 2
	if perEpoch == percentile(all, 0.95) {
		t.Errorf("mean of per-epoch p95 (%v) should differ from the pooled p95", perEpoch)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(3, 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio(3, 0) = %v, want 0", got)
	}
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
}

func TestMetricWorse(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	abs := metricDef{Better: "lower", Bound: 0.10, Abs: 0.005}
	exact := metricDef{Better: "higher", Exact: true}
	cases := []struct {
		name string
		m    metricDef
		a, b float64
		want bool
	}{
		{"lower within", lower, 100, 109, false},
		{"lower beyond", lower, 100, 111, true},
		{"lower improved", lower, 100, 50, false},
		{"higher within", higher, 100, 91, false},
		{"higher beyond", higher, 100, 89, true},
		{"higher improved", higher, 100, 200, false},
		{"abs slack covers a small base", abs, 0.004, 0.008, false},
		{"abs slack exceeded", abs, 0.004, 0.010, true},
		{"exact equal", exact, 12.537, 12.537, false},
		{"exact differs either way", exact, 12.537, 12.6, true},
	}
	ungated := metricDef{Ungated: []string{wlCrash5}}
	if ungated.gated(wlCrash5) || !ungated.gated(wlOwner3) {
		t.Error("Ungated must switch the bound off on the named workload only")
	}
	for _, c := range cases {
		if got := c.m.worse(c.a, c.b); got != c.want {
			t.Errorf("%s: worse(%v, %v) = %v, want %v", c.name, c.a, c.b, got, c.want)
		}
	}
}
