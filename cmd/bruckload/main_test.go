package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopHoldsOfferedRate checks that the open loop keeps the
// schedule's offered rate: every arrival is dispatched exactly once,
// only after the loop slept until exactly its due time, and do gets
// that scheduled due time to time the job from (not the wake-up). The
// sleeper is a fake that returns at once, so the verdict reads no wall
// clock.
func TestOpenLoopHoldsOfferedRate(t *testing.T) {
	const (
		rate     = 600.0
		duration = 2 * time.Second
	)
	arrivals := schedule(mix(), 1, rate, duration)
	if got := float64(len(arrivals)) / duration.Seconds(); got < 0.9*rate || got > 1.1*rate {
		t.Fatalf("schedule offers %.0f jobs/s, want %.0f within 10%%", got, rate)
	}
	index := map[time.Duration]int{}
	for i, a := range arrivals {
		index[a.due] = i
	}
	if len(index) != len(arrivals) {
		t.Fatalf("schedule repeats a due time; the test identifies jobs by it")
	}
	start := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	asked := map[time.Time]int{} // sleeps requested per wake-up time
	calls := make([]int, len(arrivals))
	sleepUntil := func(due time.Time) {
		mu.Lock()
		asked[due]++
		mu.Unlock()
	}
	outcomes := openLoop(arrivals, loadWorkers, start, sleepUntil, func(a arrival, due time.Time) outcome {
		mu.Lock()
		defer mu.Unlock()
		i, ok := index[a.due]
		if !ok {
			t.Errorf("dispatched an arrival due %v that the schedule does not hold", a.due)
			return outcome{}
		}
		calls[i]++
		if want := start.Add(a.due); !due.Equal(want) {
			t.Errorf("job %d timed from %v, want its due time %v", i, due, want)
		}
		if asked[due] != 1 {
			t.Errorf("job %d dispatched after %d sleeps until its due time, want 1", i, asked[due])
		}
		return outcome{served: true}
	})
	if len(outcomes) != len(arrivals) {
		t.Fatalf("%d outcomes for %d arrivals", len(outcomes), len(arrivals))
	}
	for i, n := range calls {
		if n != 1 {
			t.Errorf("job %d dispatched %d times, want once", i, n)
		}
	}
	if len(asked) != len(arrivals) {
		t.Errorf("slept until %d distinct times for %d arrivals", len(asked), len(arrivals))
	}
	for i, oc := range outcomes {
		if !oc.served {
			t.Fatalf("job %d: outcome %+v, want the served outcome do returned", i, oc)
		}
	}
}
