package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Histogram is a log-bucketed latency/size sketch with a lock-free hot
// path. Bucket i counts observations v with bits.Len64(v) == i, i.e.
// bucket 0 holds v == 0 and bucket i (i >= 1) holds v in [2^(i-1), 2^i).
// Powers of two as bucket bounds keep Observe to a handful of instructions
// — one bit-length, three atomic adds — which is what lets it sit on the
// ballot hot path.
//
// A nil *Histogram is valid and free: Observe on a nil receiver returns
// immediately, mirroring the nil-Tracer cost model.
type Histogram struct {
	// scale converts raw observed units into the exported unit (e.g. 1e-6
	// when observations are microseconds and the export is seconds).
	// Bucket *boundaries* stay in raw units; scale only affects rendering.
	scale float64

	buckets [65]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// NewHistogram builds a histogram whose exported values are raw
// observations multiplied by scale (pass 1 for dimensionless counts,
// 1e-6 for microsecond observations exported as seconds).
func NewHistogram(scale float64) *Histogram {
	if scale == 0 {
		scale = 1
	}
	return &Histogram{scale: scale}
}

// Observe records one value. Negative values clamp to zero. Safe for
// concurrent use and on a nil receiver.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// Snapshot captures a consistent-enough view for export. Concurrent
// Observe calls may land between the bucket reads — the invariant that
// matters (count never exceeds the bucket total a later scrape sees) holds
// because buckets are bumped before count.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{Scale: 1}
	}
	s := HistogramSnapshot{Scale: h.scale}
	// Read count first: the matching bucket increments happened before it.
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Scale   float64
	Count   uint64
	Sum     uint64
	Buckets [65]uint64
}

// UpperBound returns bucket i's exclusive upper bound in raw units
// (math.Inf for the last bucket).
func (s HistogramSnapshot) UpperBound(i int) float64 {
	if i >= 64 {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// ScaledSum returns the sum of observations in exported units.
func (s HistogramSnapshot) ScaledSum() float64 {
	return float64(s.Sum) * s.Scale
}

// Quantile estimates the q-quantile (0..1) in exported units by linear
// interpolation inside the containing bucket. With no observations it
// returns 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	total := uint64(0)
	for _, b := range s.Buckets {
		total += b
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, b := range s.Buckets {
		if b == 0 {
			continue
		}
		next := cum + float64(b)
		if rank <= next || i == 64 {
			lo := 0.0
			if i >= 1 {
				lo = float64(uint64(1) << uint(i-1))
			}
			hi := float64(uint64(1) << uint(i))
			if i >= 63 {
				hi = lo * 2 // avoid overflowed shifts; still finite
			}
			frac := 0.0
			if b > 0 {
				frac = (rank - cum) / float64(b)
			}
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			return (lo + (hi-lo)*frac) * s.Scale
		}
		cum = next
	}
	return 0
}

// Histogram names recorded by the daemon and exported on /v1/metrics.
const (
	// HistConfigLatency is end-to-end address-configuration latency in
	// microseconds, observed per completed allocation, exported in seconds.
	HistConfigLatency = "config_latency_seconds"
	// HistBallotRTT is the open-to-commit time of one quorum ballot in
	// microseconds, exported in seconds.
	HistBallotRTT = "ballot_rtt_seconds"
	// HistReclaimTime is the start-to-settle time of one reclamation run
	// in microseconds, exported in seconds.
	HistReclaimTime = "reclaim_seconds"
	// HistBatchOccupancy is the number of envelopes coalesced into one
	// transmitted batch frame (dimensionless).
	HistBatchOccupancy = "batch_occupancy"
	// HistTransportRTT is the data-to-ack round trip of every udptransport
	// exchange acknowledged on its first transmission — the samples the
	// retransmission timer is derived from — in nanoseconds, exported in
	// seconds.
	HistTransportRTT = "transport_rtt_seconds"
)

// Histograms is a named registry of histograms. The zero value is unusable;
// a nil *Histograms is valid and free — Get returns nil (whose Observe is
// free), so instrumented paths never branch on configuration.
type Histograms struct {
	mu sync.Mutex
	m  map[string]*Histogram
}

// NewHistograms returns an empty registry.
func NewHistograms() *Histograms {
	return &Histograms{m: make(map[string]*Histogram)}
}

// Get returns the named histogram, creating it with the given scale on
// first use. On a nil registry it returns nil.
func (r *Histograms) Get(name string, scale float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.m[name]; ok {
		return h
	}
	h := NewHistogram(scale)
	r.m[name] = h
	return h
}

// Observe records v into the named histogram, creating it on first use.
func (r *Histograms) Observe(name string, scale float64, v int64) {
	r.Get(name, scale).Observe(v)
}

// Names returns the registered histogram names, sorted.
func (r *Histograms) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.m))
	for name := range r.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Snapshot returns a point-in-time copy of the named histogram and whether
// it exists.
func (r *Histograms) Snapshot(name string) (HistogramSnapshot, bool) {
	if r == nil {
		return HistogramSnapshot{}, false
	}
	r.mu.Lock()
	h, ok := r.m[name]
	r.mu.Unlock()
	if !ok {
		return HistogramSnapshot{}, false
	}
	return h.Snapshot(), true
}
