package metrics

import (
	"fmt"
	"sync"
	"testing"
)

// TestSyncCollectorConcurrent: counters and traffic bumped from several
// goroutines while others take snapshots add up exactly, and every
// snapshot reads a counter no higher than its final value. Run it with
// -race.
func TestSyncCollectorConcurrent(t *testing.T) {
	const workers, each = 4, 2000
	s := NewSync()
	stop := make(chan struct{})
	var snaps sync.WaitGroup
	for i := 0; i < 2; i++ {
		snaps.Add(1)
		go func() {
			defer snaps.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n := s.Snapshot().Counter("shared"); n > workers*each {
					t.Errorf("snapshot reads shared = %d, above the %d ever added", n, workers*each)
				}
			}
		}()
	}
	var bumps sync.WaitGroup
	for w := 0; w < workers; w++ {
		bumps.Add(1)
		go func(w int) {
			defer bumps.Done()
			own := fmt.Sprintf("own%d", w)
			for i := 0; i < each; i++ {
				s.Inc("shared")
				s.Add(own, 2)
				s.AddTraffic(CatConfig, 3)
				s.AddTraffic(Category(99), 1) // outside the defined categories
			}
		}(w)
	}
	bumps.Wait()
	close(stop)
	snaps.Wait()

	snap := s.Snapshot()
	if got := snap.Counter("shared"); got != workers*each {
		t.Errorf("shared = %d, want %d", got, workers*each)
	}
	if got := s.Counter("shared"); got != workers*each {
		t.Errorf("Counter(shared) = %d, want %d", got, workers*each)
	}
	for w := 0; w < workers; w++ {
		if got := snap.Counter(fmt.Sprintf("own%d", w)); got != 2*each {
			t.Errorf("own%d = %d, want %d", w, got, 2*each)
		}
	}
	if got := snap.Messages(CatConfig); got != workers*each {
		t.Errorf("config messages = %d, want %d", got, workers*each)
	}
	if got := snap.Hops(CatConfig); got != 3*workers*each {
		t.Errorf("config hops = %d, want %d", got, 3*workers*each)
	}
	if got := snap.Messages(Category(99)); got != workers*each {
		t.Errorf("messages under an undefined category = %d, want %d", got, workers*each)
	}
	if got := s.Counter("never"); got != 0 {
		t.Errorf("untouched counter = %d, want 0", got)
	}
	if _, ok := snap.Counters()["never"]; ok {
		t.Error("a counter read but never bumped shows in the snapshot")
	}
}
