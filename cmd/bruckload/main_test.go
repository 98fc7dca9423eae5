package main

import (
	"sync"
	"testing"
	"time"
)

// TestOpenLoopHoldsOfferedRate runs the open loop at -rate 600 against
// a stand-in server that takes 5 ms per job and checks that arrivals
// are sent on their schedule: the stream keeps the offered rate, every
// job goes out close to its due time, and each job is timed from when
// it was due.
func TestOpenLoopHoldsOfferedRate(t *testing.T) {
	const (
		rate     = 600.0
		duration = 2 * time.Second
		service  = 5 * time.Millisecond
	)
	arrivals := schedule(mix(), 1, rate, duration)
	if got := float64(len(arrivals)) / duration.Seconds(); got < 0.9*rate || got > 1.1*rate {
		t.Fatalf("schedule offers %.0f jobs/s, want %.0f within 10%%", got, rate)
	}
	var mu sync.Mutex
	var lastSent, maxLag time.Duration
	start := time.Now()
	outcomes := openLoop(arrivals, loadWorkers, start, func(a arrival, due time.Time) outcome {
		sent := time.Since(start)
		time.Sleep(service)
		mu.Lock()
		lastSent = max(lastSent, sent)
		maxLag = max(maxLag, sent-a.due)
		mu.Unlock()
		return outcome{served: true, latencyNs: time.Since(due).Nanoseconds()}
	})
	if len(outcomes) != len(arrivals) {
		t.Fatalf("%d outcomes for %d arrivals", len(outcomes), len(arrivals))
	}
	if maxLag > 100*time.Millisecond {
		t.Errorf("a job went out %v after it was due: the loop fell behind its schedule", maxLag)
	}
	last := arrivals[len(arrivals)-1].due
	sentRate := float64(len(arrivals)) / lastSent.Seconds()
	if want := float64(len(arrivals)) / last.Seconds(); sentRate < 0.95*want {
		t.Errorf("sent %.0f jobs/s, schedule offers %.0f", sentRate, want)
	}
	for i, oc := range outcomes {
		if !oc.served || oc.latencyNs < service.Nanoseconds() {
			t.Fatalf("job %d: outcome %+v; latency must be timed from the due time and include the service", i, oc)
		}
	}
}
