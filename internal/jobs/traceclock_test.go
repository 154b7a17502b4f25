package jobs

import (
	"testing"

	"loopsched/internal/trace"
)

// TestTraceReusesLifecycleClockReads pins that tracing a direct-handoff job
// takes no clock reads of its own for the transitions the scheduler already
// times: the submitted, dispatched and joined events carry exactly the job's
// submission, release-wave and completion times, and the initial sub-team's
// waves start at the release wave.
func TestTraceReusesLifecycleClockReads(t *testing.T) {
	s := testScheduler(t, 2, Config{Tracer: trace.NewTracer(64)})
	directs := 0
	for i := 0; i < 50; i++ {
		j, err := s.Submit(Request{N: 2, Grain: 1, Body: func(w, lo, hi int) {}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		want := map[string]int64{
			"submitted":  j.submitted.UnixNano(),
			"dispatched": j.started.UnixNano(),
			"joined":     j.doneAt.UnixNano(),
		}
		direct, initial := false, 0
		for _, ev := range j.Trace().Events() {
			switch ev.Type {
			case "admitted":
				direct = direct || ev.Detail == "direct"
			case "dispatched":
				initial = ev.Workers
			}
			if at, ok := want[ev.Type]; ok && ev.TimeUnixNano != at {
				t.Fatalf("job %d: %s event at %d, want the job's own time %d", i, ev.Type, ev.TimeUnixNano, at)
			}
		}
		if direct {
			directs++
		}
		// The release wave records the initial team's waves before any
		// grower can join, so they come first.
		waves := j.Trace().Waves()
		if initial < 1 || len(waves) < initial {
			t.Fatalf("job %d: %d waves for an initial team of %d", i, len(waves), initial)
		}
		for k, w := range waves[:initial] {
			if w.StartUnixNano != want["dispatched"] {
				t.Fatalf("job %d: initial wave %d starts at %d, want the dispatch time %d", i, k, w.StartUnixNano, want["dispatched"])
			}
		}
		j.Release()
	}
	if directs == 0 {
		t.Fatal("no job took the direct-handoff path")
	}
}
