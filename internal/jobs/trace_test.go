package jobs_test

// Lifecycle tracing tests: the hooks threaded through submit → enqueue →
// dispatch → grow/peel/preempt/steal → join must deliver every transition in
// causal order (asserted by schedtest.AssertEventOrder), file finished traces
// in the collector, and stay completely inert without a Tracer.

import (
	"errors"
	"testing"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/schedtest"
	"loopsched/internal/trace"
)

// collectEvents subscribes to tr with a continuously drained buffer and
// returns a stop function yielding every event delivered before stop.
func collectEvents(t *testing.T, tr *trace.Tracer) (stop func() []trace.StreamEvent) {
	t.Helper()
	sub := tr.Subscribe(1<<14, "", 0)
	var events []trace.StreamEvent
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case ev := <-sub.Events():
				events = append(events, ev)
			case <-quit:
				// The run has drained; empty whatever is still buffered.
				for {
					select {
					case ev := <-sub.Events():
						events = append(events, ev)
					default:
						return
					}
				}
			}
		}
	}()
	return func() []trace.StreamEvent {
		close(quit)
		<-done
		sub.Close()
		if sub.Dropped() != 0 {
			t.Fatalf("event collector dropped %d events; grow the buffer", sub.Dropped())
		}
		return events
	}
}

func TestTraceLifecycleSimpleJob(t *testing.T) {
	tr := trace.NewTracer(64)
	s := jobs.New(jobs.Config{Workers: 2, Tracer: tr})
	defer s.Close()

	j, err := s.Submit(jobs.Request{N: 128, Tenant: "acme", Label: "simple", Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	jt := j.Trace()
	if jt == nil {
		t.Fatal("traced scheduler returned a nil Job.Trace")
	}
	if !jt.Finished() {
		t.Fatal("trace not finished after Wait")
	}
	if got := tr.Trace(jt.ID); got != jt {
		t.Fatalf("collector lookup = %v, want the job's trace", got)
	}
	evs := jt.Events()
	types := make([]string, len(evs))
	for i, ev := range evs {
		types[i] = ev.Type
	}
	want := []string{"submitted", "admitted", "dispatched", "joined"}
	for i, typ := range want {
		if i >= len(types) || types[i] != typ {
			t.Fatalf("event types = %v, want prefix %v", types, want)
		}
	}
	if len(jt.Waves()) == 0 {
		t.Fatal("no chunk-wave stints recorded")
	}
	schedtest.AssertEventOrder(t, evs)

	doc := jt.OTLP("test")
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	if names["job"] != 1 || names["queued"] != 1 || names["run"] != 1 || names["wave"] == 0 {
		t.Fatalf("span names = %v, want one job/queued/run and >= 1 wave", names)
	}
}

func TestTraceCanceledJob(t *testing.T) {
	tr := trace.NewTracer(64)
	s := jobs.New(jobs.Config{Workers: 1, Tracer: tr})
	defer s.Close()

	// Hold the lone worker so a second submission stays queued and cancelable.
	release := make(chan struct{})
	hold, err := s.Submit(jobs.Request{N: 1, Body: func(w, lo, hi int) { <-release }})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := s.Submit(jobs.Request{N: 64, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	// The hold job may still be queued for an instant; retry until the cancel
	// targets a Pending victim behind the running hold.
	if !victim.Cancel() {
		t.Fatal("victim not cancelable while the worker is held")
	}
	close(release)
	if _, err := hold.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := victim.Wait(); !errors.Is(err, jobs.ErrCanceled) {
		t.Fatalf("canceled job Wait err = %v", err)
	}
	jt := victim.Trace()
	if !jt.Finished() {
		t.Fatal("canceled trace not finished")
	}
	evs := jt.Events()
	last := evs[len(evs)-1]
	if last.Type != "canceled" {
		t.Fatalf("last event = %q, want canceled", last.Type)
	}
	schedtest.AssertEventOrder(t, evs)
	if tr.Trace(jt.ID) == nil {
		t.Fatal("canceled trace not filed in the collector")
	}
}

func TestTraceUntracedSchedulerIsInert(t *testing.T) {
	s := jobs.New(jobs.Config{Workers: 2})
	defer s.Close()
	j, err := s.Submit(jobs.Request{N: 32, Body: func(w, lo, hi int) {}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(); err != nil {
		t.Fatal(err)
	}
	if j.Trace() != nil {
		t.Fatal("untraced scheduler produced a trace handle")
	}
}

func TestInvariantTracedScheduler(t *testing.T) {
	// The standard op stream (tenants, priorities, deadlines, cancels, DAGs)
	// against a traced scheduler: every delivered event stream must satisfy
	// the causal-order invariants.
	tr := trace.NewTracer(4096)
	stop := collectEvents(t, tr)
	s := jobs.New(jobs.Config{Workers: 4, Tracer: tr})
	schedtest.RunJobInvariants(t, s, schedtest.InvariantOptions{Seed: seed + 9}, 4, schedulerDrain(s))
	s.Close()
	evs := stop()
	if len(evs) == 0 {
		t.Fatal("traced invariant run delivered no events")
	}
	schedtest.AssertEventOrder(t, evs)
}

func TestInvariantTracedShardedWithStealing(t *testing.T) {
	// The hostile sharded configuration (1-worker shards, near-zero steal
	// interval) with tracing on: stolen/lent/peeled churn must still deliver
	// causally ordered streams, under -race.
	tr := trace.NewTracer(4096)
	stop := collectEvents(t, tr)
	p := jobs.NewSharded(jobs.ShardedConfig{
		Config:        jobs.Config{Workers: 4, Tracer: tr},
		Shards:        4,
		StealInterval: 20 * time.Microsecond,
	})
	schedtest.RunJobInvariants(t, p, schedtest.InvariantOptions{Seed: seed + 10, Tenants: 8}, 4, shardedDrain(p))
	p.Close()
	evs := stop()
	schedtest.AssertEventOrder(t, evs)
}

// TestTraceSubscriberBeforeSubmitSeesEveryEvent pins the zero-subscriber
// fast path: events skip the subscriber walk only while nobody is
// subscribed, so a subscription registered just before a submit receives
// every event of that job, identical to the job's own record and in causal
// Seq order. The loop alternates subscribed and unsubscribed jobs so the
// count flips between zero and one throughout.
func TestTraceSubscriberBeforeSubmitSeesEveryEvent(t *testing.T) {
	tr := trace.NewTracer(64)
	s := jobs.New(jobs.Config{Workers: 2, Tracer: tr})
	defer s.Close()
	req := jobs.Request{N: 2, Grain: 1, Body: func(w, lo, hi int) {}}
	for i := 0; i < 200; i++ {
		if i%2 == 1 {
			j, err := s.Submit(req) // nobody listening
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		sub := tr.Subscribe(64, "", 0)
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(); err != nil {
			t.Fatal(err)
		}
		want := j.Trace().Events()
		var got []trace.StreamEvent
		for len(got) < len(want) {
			select {
			case ev := <-sub.Events():
				if ev.Job == j.TraceID() {
					got = append(got, ev)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("job %d: subscriber got %d of %d events: %v", i, len(got), len(want), got)
			}
		}
		sub.Close()
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("job %d: delivered event %d = %+v, recorded %+v", i, k, got[k], want[k])
			}
		}
		schedtest.AssertEventOrder(t, got)
		if got[0].Type != "submitted" || got[len(got)-1].Type != "joined" {
			t.Fatalf("job %d: delivered %v, want submitted first and joined last", i, got)
		}
	}
}
