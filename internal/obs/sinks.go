package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Ring is a bounded in-memory sink keeping the most recent events. It is
// what quorumd serves from /v1/trace: cheap enough to leave always on,
// bounded so a long-lived daemon cannot grow without limit.
//
// Ring has its own lock (rather than relying on the tracer's) because
// Snapshot is called from HTTP handler goroutines while the owning tracer
// keeps recording.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	next int  // index of the slot the next event lands in
	full bool // buf has wrapped at least once
}

// DefaultRingSize bounds the always-on daemon ring.
const DefaultRingSize = 1024

// NewRing returns a ring keeping the last capacity events (capacity <= 0
// means DefaultRingSize).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Record implements Sink.
func (r *Ring) Record(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Snapshot returns the retained events, oldest first.
func (r *Ring) Snapshot() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Event, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// JSONLWriter streams events as one JSON object per line (the quorumsim
// -trace format). Writes are buffered; call Flush (or Close) before the
// file is read. Safe for concurrent Record calls from multiple tracers —
// parallel sweep rounds share one writer.
type JSONLWriter struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLWriter wraps w in a line-oriented event sink.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	bw := bufio.NewWriter(w)
	return &JSONLWriter{bw: bw, enc: json.NewEncoder(bw)}
}

// Record implements Sink. The first encode error is retained (see Err) and
// subsequent events are dropped; a tracing sink must never take down the
// run it observes.
func (w *JSONLWriter) Record(e Event) {
	w.mu.Lock()
	if w.err == nil {
		w.err = w.enc.Encode(e)
	}
	w.mu.Unlock()
}

// Flush forces buffered lines out and returns the first error seen.
func (w *JSONLWriter) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.bw.Flush()
}

// Err returns the first write or encode error, if any.
func (w *JSONLWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
