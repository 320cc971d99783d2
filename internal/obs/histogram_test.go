package obs

import (
	"math"
	"sync"
	"testing"
)

func TestNilHistogramIsSafe(t *testing.T) {
	var h *Histogram
	h.Observe(5)
	s := h.Snapshot()
	if s.Count != 0 || s.Scale != 1 {
		t.Fatalf("nil snapshot %+v", s)
	}
	var r *Histograms
	if r.Get("x", 1) != nil {
		t.Fatal("nil registry Get must return nil")
	}
	r.Observe("x", 1, 5) // must not panic
	if r.Names() != nil {
		t.Fatal("nil registry Names must be nil")
	}
	if _, ok := r.Snapshot("x"); ok {
		t.Fatal("nil registry Snapshot must report false")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram(1)
	// v=0 -> bucket 0; v=1 -> bucket 1; v in [2,4) -> bucket 2; v in [4,8) -> bucket 3.
	for _, v := range []int64{0, 1, 2, 3, 4, 7, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Fatalf("count = %d", s.Count)
	}
	want := map[int]uint64{0: 2, 1: 1, 2: 2, 3: 2} // -5 clamps to 0
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, n, want[i], want)
		}
	}
	if s.Sum != 0+1+2+3+4+7 {
		t.Fatalf("sum = %d", s.Sum)
	}
	if ub := s.UpperBound(3); ub != 8 {
		t.Fatalf("UpperBound(3) = %v", ub)
	}
	if !math.IsInf(s.UpperBound(64), 1) {
		t.Fatal("last bucket bound must be +Inf")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(1e-6) // microsecond observations exported as seconds
	// 100 observations spread through [1024, 2048) — bucket 11.
	for i := 0; i < 100; i++ {
		h.Observe(1024 + int64(i)*10)
	}
	s := h.Snapshot()
	p50 := s.Quantile(0.5)
	// Interpolated midpoint of [1024,2048)us is ~1536us = 0.001536s.
	if p50 < 1000e-6 || p50 > 2100e-6 {
		t.Fatalf("p50 = %v, want ~1.5ms", p50)
	}
	if q := s.Quantile(0); q < 0 {
		t.Fatalf("q0 = %v", q)
	}
	empty := NewHistogram(1).Snapshot()
	if empty.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(int64(g*1000 + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total != 8000 {
		t.Fatalf("bucket total = %d, want 8000", total)
	}
}

func TestHistogramsRegistry(t *testing.T) {
	r := NewHistograms()
	r.Observe(HistConfigLatency, 1e-6, 1500)
	r.Observe(HistConfigLatency, 1e-6, 2500)
	r.Observe(HistBatchOccupancy, 1, 4)
	names := r.Names()
	if len(names) != 2 || names[0] != HistBatchOccupancy || names[1] != HistConfigLatency {
		t.Fatalf("names = %v", names)
	}
	s, ok := r.Snapshot(HistConfigLatency)
	if !ok || s.Count != 2 {
		t.Fatalf("snapshot = %+v, %v", s, ok)
	}
	if got := s.ScaledSum(); math.Abs(got-0.004) > 1e-9 {
		t.Fatalf("scaled sum = %v, want 0.004", got)
	}
	if _, ok := r.Snapshot("nope"); ok {
		t.Fatal("unknown name must report false")
	}
	// Get with a different scale returns the existing histogram unchanged.
	if r.Get(HistConfigLatency, 1) != r.Get(HistConfigLatency, 1e-6) {
		t.Fatal("Get must be idempotent per name")
	}
}

// BenchmarkHistogramObserve measures the lock-free hot path; bench reports
// the same operation as obs.hist_observe_ns.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(1e-6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkHistogramObserveDisabled(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
