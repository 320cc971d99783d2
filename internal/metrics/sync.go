package metrics

import (
	"sync"
	"sync/atomic"
)

// SyncCollector is a Collector safe for concurrent use, for components that
// record from multiple goroutines — the real transports and the quorumd
// daemon. The simulation stack keeps using the bare Collector
// (single-threaded event loop, no synchronization cost).
//
// Named counters and per-category traffic, which the transports bump
// several times per datagram, are atomics and take no lock; only traffic
// under a category outside the defined ones (a hostile datagram can carry
// any category byte) takes a mutex. Latency samples go to obs.Histograms.
type SyncCollector struct {
	counters sync.Map // counter name → *atomic.Int64
	hops     [numCategories]atomic.Int64
	messages [numCategories]atomic.Int64

	mu sync.Mutex
	c  *Collector
}

// NewSync returns an empty thread-safe collector.
func NewSync() *SyncCollector { return &SyncCollector{c: New()} }

// Inc increments a named counter by one.
func (s *SyncCollector) Inc(name string) { s.Add(name, 1) }

// Add increments a named counter by delta.
func (s *SyncCollector) Add(name string, delta int64) {
	v, ok := s.counters.Load(name)
	if !ok {
		v, _ = s.counters.LoadOrStore(name, new(atomic.Int64))
	}
	v.(*atomic.Int64).Add(delta)
}

// Counter returns the value of a named counter.
func (s *SyncCollector) Counter(name string) int64 {
	if v, ok := s.counters.Load(name); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// AddTraffic records one message of the given category over hops hops.
func (s *SyncCollector) AddTraffic(cat Category, hops int) {
	if cat < CatConfig || cat >= numCategories {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.c.AddTraffic(cat, hops)
		return
	}
	s.hops[cat].Add(int64(hops))
	s.messages[cat].Add(1)
}

// Snapshot returns an independent copy of the current state, safe to read
// without further synchronization. An update racing with it may or may not
// show in it.
func (s *SyncCollector) Snapshot() *Collector {
	out := New()
	s.mu.Lock()
	out.Merge(s.c)
	s.mu.Unlock()
	s.counters.Range(func(name, v any) bool {
		out.Add(name.(string), v.(*atomic.Int64).Load())
		return true
	})
	for _, cat := range Categories() {
		if n := s.messages[cat].Load(); n != 0 {
			out.hops[cat] += s.hops[cat].Load()
			out.messages[cat] += n
		}
	}
	return out
}
