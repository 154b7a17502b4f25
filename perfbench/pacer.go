package main

import (
	"math/rand"
	"syscall"
	"time"
)

// spinWindow is how much of a wait the pacer spends spinning on the clock
// instead of sleeping. time.Sleep rounds sub-millisecond waits up to the
// netpoller's millisecond tick, and a raw nanosleep overshoots by the
// kernel's timer slack (50µs by default); either would be charged to the
// system under test, because open-loop latency is timed from the due time.
// Sleeping until spinWindow before the due time and spinning the rest keeps
// the generator on time for a few µs of CPU per request.
const spinWindow = 80 * time.Microsecond

// sleepUntil blocks until the monotonic clock reaches due.
func sleepUntil(due time.Time) {
	for {
		left := time.Until(due)
		if left <= 0 {
			return
		}
		if left > spinWindow {
			ts := syscall.NsecToTimespec(int64(left - spinWindow))
			// EINTR only shortens the sleep; the loop re-checks the clock.
			_ = syscall.Nanosleep(&ts, nil)
			continue
		}
		for time.Now().Before(due) {
		}
		return
	}
}

// poissonSchedule returns the due offsets of an open-loop arrival process at
// rate per second over span: exponential inter-arrival gaps drawn from rng.
func poissonSchedule(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	limit := span.Seconds()
	for {
		t += rng.ExpFloat64() / rate
		if t >= limit {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}
