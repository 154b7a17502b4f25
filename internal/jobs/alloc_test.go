package jobs

import (
	"testing"

	"loopsched/internal/trace"
)

// warmSubmitPath primes every recyclable capacity on the submit path: the job
// freelist, each job's partials/slot-stack/cached barrier, the fair queue's
// tenant account and heap, and the dispatcher's admission scratch.
func warmSubmitPath(t *testing.T, s *Scheduler, req Request) {
	t.Helper()
	for i := 0; i < 128; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
	}
}

// TestSubmitAllocs pins the tentpole acceptance criterion at the scheduler
// layer: a steady-state Submit/Wait/Release cycle — through job pooling, the
// direct-handoff fast path or the fair queue, the release wave, the worker's
// run and the cond-based join — performs zero heap allocations.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer s.Close()
	req := Request{N: 64, Body: func(w, lo, hi int) {}}
	warmSubmitPath(t, s, req)
	avg := testing.AllocsPerRun(500, func() {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
	})
	if avg != 0 {
		t.Errorf("Submit/Wait/Release cycle: %v allocs/op, want 0", avg)
	}
}

// TestSubmitAllocsReducing covers the reduction shape (partial slots and the
// identity fold) at zero allocations as well.
func TestSubmitAllocsReducing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer s.Close()
	req := Request{
		N:           64,
		RBody:       func(w, lo, hi int, acc float64) float64 { return acc + float64(hi-lo) },
		Combine:     func(a, b float64) float64 { return a + b },
		Commutative: true,
	}
	warmSubmitPath(t, s, req)
	avg := testing.AllocsPerRun(500, func() {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		v, err := j.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if v != 64 {
			t.Fatalf("sum = %v, want 64", v)
		}
		j.Release()
	})
	if avg != 0 {
		t.Errorf("reducing Submit/Wait/Release cycle: %v allocs/op, want 0", avg)
	}
}

// TestSubmitBatchAllocs pins the batched intake: admitting N jobs through
// SubmitBatch into caller-provided storage, then joining and recycling them,
// allocates nothing in steady state.
func TestSubmitBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := New(Config{Workers: 2, QueueDepth: 64})
	defer s.Close()
	const batch = 16
	reqs := make([]Request, batch)
	out := make([]*Job, batch)
	body := func(w, lo, hi int) {}
	for i := range reqs {
		reqs[i] = Request{N: 64, Body: body}
	}
	cycle := func() {
		if err := s.SubmitBatch(reqs, out); err != nil {
			t.Fatal(err)
		}
		for i, j := range out {
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			j.Release()
			out[i] = nil
		}
	}
	for i := 0; i < 16; i++ {
		cycle() // prime the freelist with a batch's worth of jobs
	}
	avg := testing.AllocsPerRun(100, cycle)
	if got := avg / batch; got != 0 {
		t.Errorf("SubmitBatch cycle: %v allocs per submitted job, want 0", got)
	}
}

// TestSubmitAllocsTraced pins the cost of lifecycle tracing with nobody
// subscribed: the job's events and participant stints fit the JobTrace's
// inline storage and the collector files it in a ring slot, so a traced
// Submit/Wait/Release cycle allocates exactly the JobTrace.
func TestSubmitAllocsTraced(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under -race")
	}
	s := New(Config{Workers: 2, QueueDepth: 64, Tracer: trace.NewTracer(64)})
	defer s.Close()
	req := Request{N: 64, Body: func(w, lo, hi int) {}}
	warmSubmitPath(t, s, req)
	avg := testing.AllocsPerRun(500, func() {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		j.Release()
	})
	if avg > 1 {
		t.Errorf("traced Submit/Wait/Release cycle: %v allocs/op, want <= 1 (the JobTrace)", avg)
	}
}
