package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestNewStartsAtZero(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
}

func TestScheduleAndRunInOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events fired in order %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v after run, want 3s", s.Now())
	}
}

func TestEqualTimestampsFireInScheduleOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order %v, want ascending schedule order", got)
		}
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.Schedule(time.Second, func() {
		s.Schedule(-5*time.Second, func() { fired = true })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if s.Now() != time.Second {
		t.Errorf("Now() = %v, want 1s (clamped event must not rewind clock)", s.Now())
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := New(1)
	var at time.Duration
	s.Schedule(2*time.Second, func() {
		s.ScheduleAt(time.Second, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if at != 2*time.Second {
		t.Errorf("past-scheduled event fired at %v, want 2s", at)
	}
}

func TestCancelPreventsFiring(t *testing.T) {
	s := New(1)
	fired := false
	tm := s.Schedule(time.Second, func() { fired = true })
	if !tm.Cancel() {
		t.Fatal("Cancel() = false for pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel() = true, want false")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if !tm.cancelled || tm.Pending() {
		t.Errorf("timer state: cancelled=%v Pending=%v, want true/false", tm.cancelled, tm.Pending())
	}
}

func TestCancelAfterFireIsNoop(t *testing.T) {
	s := New(1)
	tm := s.Schedule(time.Second, func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if !tm.fired {
		t.Fatal("timer did not fire")
	}
	if tm.Cancel() {
		t.Fatal("Cancel() on fired timer = true, want false")
	}
}

func TestStopHaltsRun(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 5; i++ {
		s.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run() = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Errorf("events fired = %d, want 2", count)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	for i := 1; i <= 5; i++ {
		d := time.Duration(i) * time.Second
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(3 * time.Second); err != nil {
		t.Fatalf("RunUntil() = %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want horizon 3s", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", s.Pending())
	}
}

func TestRunUntilPastHorizonErrors(t *testing.T) {
	s := New(1)
	s.Schedule(5*time.Second, func() {})
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatalf("RunUntil() = %v", err)
	}
	if err := s.RunUntil(time.Second); err == nil {
		t.Fatal("RunUntil(past) = nil, want error")
	}
}

func TestEventsCanSchedule(t *testing.T) {
	s := New(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			s.Schedule(time.Millisecond, recur)
		}
	}
	s.Schedule(0, recur)
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if s.EventsFired() != 100 {
		t.Errorf("EventsFired() = %d, want 100", s.EventsFired())
	}
}

func TestZeroDelayFiresAfterAlreadyQueuedSameTime(t *testing.T) {
	s := New(1)
	var got []string
	s.Schedule(0, func() { got = append(got, "a") })
	s.Schedule(0, func() {
		got = append(got, "b")
		s.Schedule(0, func() { got = append(got, "c") })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run() = %v", err)
	}
	want := "abc"
	var sb string
	for _, g := range got {
		sb += g
	}
	if sb != want {
		t.Errorf("order = %q, want %q", sb, want)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var draws []int64
		for i := 0; i < 20; i++ {
			s.Schedule(time.Duration(i)*time.Millisecond, func() {
				draws = append(draws, s.Rand().Int63n(1000))
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run() = %v", err)
		}
		return draws
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with identical seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draw sequences")
	}
}

// TestNextEventAt pins peek, which RunUntil reads to stop at its horizon:
// the next pending event's time, past cancelled ones.
func TestNextEventAt(t *testing.T) {
	s := New(1)
	if _, ok := s.peek(); ok {
		t.Fatal("peek() on empty queue reported an event")
	}
	tm := s.Schedule(4*time.Second, func() {})
	s.Schedule(7*time.Second, func() {})
	if at, ok := s.peek(); !ok || at != 4*time.Second {
		t.Fatalf("peek() = %v,%v, want 4s,true", at, ok)
	}
	tm.Cancel()
	if at, ok := s.peek(); !ok || at != 7*time.Second {
		t.Fatalf("peek() after cancel = %v,%v, want 7s,true", at, ok)
	}
}

func TestStepSkipsCancelled(t *testing.T) {
	s := New(1)
	tm := s.Schedule(time.Second, func() {})
	fired := false
	s.Schedule(2*time.Second, func() { fired = true })
	tm.Cancel()
	if !s.Step() {
		t.Fatal("Step() = false with a live event queued")
	}
	if !fired {
		t.Fatal("Step executed the wrong event")
	}
	if s.Step() {
		t.Fatal("Step() = true on empty queue")
	}
}

func TestScheduleNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(nil) did not panic")
		}
	}()
	New(1).Schedule(time.Second, nil)
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing timestamp order and the clock never goes backwards.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var stamps []time.Duration
		for _, d := range delays {
			s.Schedule(time.Duration(d)*time.Millisecond, func() {
				stamps = append(stamps, s.Now())
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i := 1; i < len(stamps); i++ {
			if stamps[i] < stamps[i-1] {
				return false
			}
		}
		return len(stamps) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: cancelling an arbitrary subset of timers fires exactly the
// complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		s := New(3)
		fired := 0
		var timers []*Timer
		for _, d := range delays {
			timers = append(timers, s.Schedule(time.Duration(d)*time.Millisecond, func() { fired++ }))
		}
		cancelled := 0
		for i, tm := range timers {
			if i < len(mask) && mask[i] {
				tm.Cancel()
				cancelled++
			}
		}
		if err := s.Run(); err != nil {
			return false
		}
		return fired == len(delays)-cancelled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCancelledHeapCompaction asserts that cancelling more than half the
// queued timers compacts the heap immediately: Pending() shrinks without a
// single event being executed, and the survivors still fire in order.
func TestCancelledHeapCompaction(t *testing.T) {
	s := New(1)
	const total = 100
	var timers []*Timer
	for i := 0; i < total; i++ {
		timers = append(timers, s.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	if got := s.Pending(); got != total {
		t.Fatalf("Pending() = %d, want %d", got, total)
	}
	// Cancel every even timer: at 50 cancelled out of 100 the threshold
	// (strictly more than half) has not tripped yet.
	for i := 0; i < total; i += 2 {
		timers[i].Cancel()
	}
	if got := s.Pending(); got != total {
		t.Fatalf("Pending() = %d before threshold, want %d (lazy)", got, total)
	}
	// One more cancellation pushes past half the queue and compacts.
	timers[1].Cancel()
	if got := s.Pending(); got != total/2-1 {
		t.Fatalf("Pending() = %d after compaction, want %d", got, total/2-1)
	}
	// The surviving timers still fire, in timestamp order.
	var fired []time.Duration
	for s.Step() {
		fired = append(fired, s.Now())
	}
	if len(fired) != total/2-1 {
		t.Fatalf("fired %d events, want %d", len(fired), total/2-1)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("events out of order: %v", fired)
		}
	}
}

// TestCompactionAccountsPoppedCancellations pins the bookkeeping: cancelled
// timers discarded by Step/peek must leave the counter consistent so a
// later cancellation wave still compacts.
func TestCompactionAccountsPoppedCancellations(t *testing.T) {
	s := New(1)
	var first []*Timer
	for i := 0; i < 10; i++ {
		first = append(first, s.Schedule(time.Duration(i+1)*time.Millisecond, func() {}))
	}
	// Cancel 4 of 10 (below threshold), then drain them via Step.
	for i := 0; i < 4; i++ {
		first[i].Cancel()
	}
	for s.Step() {
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
	// A fresh wave: 3 scheduled, 2 cancelled must compact (2*2 > 3).
	a := s.Schedule(time.Millisecond, func() {})
	b := s.Schedule(2*time.Millisecond, func() {})
	s.Schedule(3*time.Millisecond, func() {})
	a.Cancel()
	b.Cancel()
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending() = %d after second wave, want 1", got)
	}
}
