// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Simulator owns a virtual clock and a priority queue of scheduled events.
// Events fire in timestamp order; events with equal timestamps fire in the
// order they were scheduled, which makes every run with the same seed fully
// reproducible. The kernel is intentionally single-threaded: all protocol
// logic in this repository runs as callbacks on the simulator goroutine, so
// no package in the simulation stack needs locking.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// ErrStopped is returned by Run when the simulation was halted by Stop
// before the event queue drained or the horizon was reached.
var ErrStopped = errors.New("sim: stopped")

// Timer is a handle to a scheduled event. The zero value is not useful;
// timers are produced by Simulator.Schedule and Simulator.ScheduleAt.
type Timer struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
	owner     *Simulator // for cancelled-entry accounting; nil once dequeued
}

// At reports the virtual time at which the timer fires (or fired).
func (t *Timer) At() time.Duration { return t.at }

// Cancel prevents the timer's callback from running. Cancelling an already
// fired or already cancelled timer is a no-op. Cancel reports whether the
// callback was still pending.
func (t *Timer) Cancel() bool {
	if t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	t.fn = nil
	if t.owner != nil {
		t.owner.cancelled++
		t.owner.maybeCompact()
	}
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool { return !t.fired && !t.cancelled }

type eventHeap []*Timer

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*Timer)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Simulator is a discrete-event scheduler with a virtual clock.
// Create one with New. A Simulator must not be shared across goroutines.
type Simulator struct {
	now       time.Duration
	queue     eventHeap
	seq       uint64
	rng       *rand.Rand
	stopped   bool
	running   bool
	fired     uint64
	cancelled int // cancelled timers still sitting in the queue
}

// New returns a Simulator whose random source is seeded with seed.
// The clock starts at zero.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// EventsFired returns the number of events executed so far.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// Pending returns the number of events still queued, including cancelled
// timers that have not yet been popped or compacted away. Cancelled timers
// are reclaimed lazily: once they exceed half the queue the heap is
// compacted in one O(n) pass, so a workload that cancels most of what it
// schedules (retry timers, failure detectors) cannot grow the queue
// unboundedly.
func (s *Simulator) Pending() int { return len(s.queue) }

// maybeCompact drops cancelled entries and re-heapifies once they make up
// more than half the queue. Heap order among live timers is re-established
// by Init; pop order is unchanged because (at, seq) is a total order.
func (s *Simulator) maybeCompact() {
	if s.cancelled*2 <= len(s.queue) {
		return
	}
	live := s.queue[:0]
	for _, t := range s.queue {
		if t.cancelled {
			t.owner = nil
			continue
		}
		live = append(live, t)
	}
	for i := len(live); i < len(s.queue); i++ {
		s.queue[i] = nil
	}
	s.queue = live
	s.cancelled = 0
	heap.Init(&s.queue)
}

// Schedule queues fn to run after delay of virtual time. A negative delay is
// treated as zero (the event runs at the current time, after events already
// queued for that time). It returns a cancellable Timer handle.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt queues fn to run at absolute virtual time at. Times in the past
// are clamped to the current time.
func (s *Simulator) ScheduleAt(at time.Duration, fn func()) *Timer {
	if fn == nil {
		panic("sim: ScheduleAt called with nil callback")
	}
	if at < s.now {
		at = s.now
	}
	t := &Timer{at: at, seq: s.seq, fn: fn, owner: s}
	s.seq++
	heap.Push(&s.queue, t)
	return t
}

// Stop halts the simulation after the currently executing event returns.
// It may be called from inside an event callback.
func (s *Simulator) Stop() { s.stopped = true }

// Step executes the next pending event, advancing the clock to its
// timestamp. It reports whether an event was executed (cancelled timers are
// discarded without counting as a step).
func (s *Simulator) Step() bool {
	for len(s.queue) > 0 {
		t := heap.Pop(&s.queue).(*Timer)
		t.owner = nil
		if t.cancelled {
			s.cancelled--
			continue
		}
		s.now = t.at
		t.fired = true
		s.fired++
		fn := t.fn
		t.fn = nil
		fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty. It returns ErrStopped if
// Stop was called first.
func (s *Simulator) Run() error {
	s.running = true
	defer func() { s.running = false }()
	for !s.stopped {
		if !s.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with timestamps not exceeding horizon, then
// advances the clock to horizon. Events scheduled beyond the horizon remain
// queued. It returns ErrStopped if Stop was called first.
func (s *Simulator) RunUntil(horizon time.Duration) error {
	if horizon < s.now {
		return fmt.Errorf("sim: horizon %v is before current time %v", horizon, s.now)
	}
	s.running = true
	defer func() { s.running = false }()
	for !s.stopped {
		next, ok := s.peek()
		if !ok || next > horizon {
			s.now = horizon
			return nil
		}
		s.Step()
	}
	return ErrStopped
}

// peek returns the timestamp of the next live event.
func (s *Simulator) peek() (time.Duration, bool) {
	for len(s.queue) > 0 {
		if s.queue[0].cancelled {
			t := heap.Pop(&s.queue).(*Timer)
			t.owner = nil
			s.cancelled--
			continue
		}
		return s.queue[0].at, true
	}
	return 0, false
}
