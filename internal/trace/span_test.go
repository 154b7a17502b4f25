package trace

import (
	"encoding/json"
	"strconv"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	jt := tr.Begin("tenant", "label", 0)
	if jt != nil {
		t.Fatalf("nil tracer Begin = %v, want nil", jt)
	}
	// All hooks must be no-ops on the nil handle.
	jt.Event(EvSubmitted, 0, 0, "")
	w := jt.WaveStart(0, false)
	if w != -1 {
		t.Fatalf("nil WaveStart = %d, want -1", w)
	}
	jt.WaveEnd(w)
	if jt.Finished() || jt.Events() != nil || jt.Waves() != nil || jt.Truncated() != 0 {
		t.Fatalf("nil JobTrace accessors not inert")
	}
	if got := tr.Stats(); got != (TracerStats{}) {
		t.Fatalf("nil tracer Stats = %+v, want zero", got)
	}
	if tr.Trace(1) != nil {
		t.Fatalf("nil tracer Trace != nil")
	}
	if tr.Subscribe(1, "", 0) != nil {
		t.Fatalf("nil tracer Subscribe != nil")
	}
}

func TestEventOrderAndTerminalFiling(t *testing.T) {
	tr := NewTracer(8)
	jt := tr.Begin("acme", "stage0", 3)
	if jt.ID == 0 {
		t.Fatalf("job id not assigned")
	}
	jt.Event(EvSubmitted, 1, 0, "")
	jt.Event(EvAdmitted, 1, 0, "")
	jt.Event(EvDispatched, 1, 2, "")
	if tr.Trace(jt.ID) != nil {
		t.Fatalf("trace filed before terminal event")
	}
	jt.Event(EvJoined, 1, 4, "")
	got := tr.Trace(jt.ID)
	if got != jt {
		t.Fatalf("Trace(%d) = %v, want the finished trace", jt.ID, got)
	}
	evs := got.Events()
	wantTypes := []string{"submitted", "admitted", "dispatched", "joined"}
	if len(evs) != len(wantTypes) {
		t.Fatalf("got %d events, want %d", len(evs), len(wantTypes))
	}
	var lastSeq uint64
	for i, ev := range evs {
		if ev.Type != wantTypes[i] {
			t.Errorf("event %d type = %q, want %q", i, ev.Type, wantTypes[i])
		}
		if ev.Seq <= lastSeq {
			t.Errorf("event %d seq %d not increasing past %d", i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Job != jt.ID || ev.Tenant != "acme" || ev.Label != "stage0" || ev.Priority != 3 {
			t.Errorf("event %d identity fields wrong: %+v", i, ev)
		}
	}
	if !got.Finished() {
		t.Fatalf("trace not marked finished")
	}
	if st := tr.Stats(); st.EventsTotal != 4 || st.FinishedTraces != 1 {
		t.Fatalf("tracer stats = %+v, want 4 events / 1 trace", st)
	}
}

func TestSubscribeFilters(t *testing.T) {
	tr := NewTracer(8)
	all := tr.Subscribe(16, "", 0)
	defer all.Close()
	byTenant := tr.Subscribe(16, "beta", 0)
	defer byTenant.Close()

	a := tr.Begin("alpha", "", 0)
	b := tr.Begin("beta", "", 0)
	byJob := tr.Subscribe(16, "", b.ID)
	defer byJob.Close()

	a.Event(EvSubmitted, 0, 0, "")
	b.Event(EvSubmitted, 0, 0, "")
	a.Event(EvJoined, 0, 1, "")
	b.Event(EvJoined, 0, 1, "")

	drain := func(s *Subscription) []StreamEvent {
		var out []StreamEvent
		for {
			select {
			case ev := <-s.Events():
				out = append(out, ev)
			default:
				return out
			}
		}
	}
	if got := drain(all); len(got) != 4 {
		t.Errorf("unfiltered subscriber got %d events, want 4", len(got))
	}
	for _, ev := range drain(byTenant) {
		if ev.Tenant != "beta" {
			t.Errorf("tenant filter leaked event %+v", ev)
		}
	}
	jobEvents := drain(byJob)
	if len(jobEvents) != 2 {
		t.Errorf("job filter got %d events, want 2", len(jobEvents))
	}
	for _, ev := range jobEvents {
		if ev.Job != b.ID {
			t.Errorf("job filter leaked event %+v", ev)
		}
	}
}

func TestSlowSubscriberDropsAndCounts(t *testing.T) {
	tr := NewTracer(8)
	slow := tr.Subscribe(2, "", 0)
	defer slow.Close()
	jt := tr.Begin("t", "", 0)
	for i := 0; i < 10; i++ {
		jt.Event(EvGrown, 0, i, "")
	}
	if got := slow.Dropped(); got != 8 {
		t.Fatalf("Dropped = %d, want 8", got)
	}
	if st := tr.Stats(); st.DroppedTotal != 8 {
		t.Fatalf("tracer DroppedTotal = %d, want 8", st.DroppedTotal)
	}
	// The two buffered events are still readable after Close.
	slow.Close()
	if len(slow.Events()) != 2 {
		t.Fatalf("buffered events lost on close")
	}
}

func TestSubscribeUnsubscribeRace(t *testing.T) {
	tr := NewTracer(8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jt := tr.Begin("t", "", 0)
			for {
				select {
				case <-stop:
					return
				default:
					jt.Event(EvGrown, 0, 0, "")
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		s := tr.Subscribe(4, "", 0)
		select {
		case <-s.Events():
		default:
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
	if st := tr.Stats(); st.Subscribers != 0 {
		t.Fatalf("subscribers leaked: %+v", st)
	}
}

func TestCollectorRingEvicts(t *testing.T) {
	tr := NewTracer(2)
	var ids []uint64
	for i := 0; i < 3; i++ {
		jt := tr.Begin("t", "", 0)
		jt.Event(EvJoined, 0, 1, "")
		ids = append(ids, jt.ID)
	}
	if tr.Trace(ids[0]) != nil {
		t.Fatalf("oldest trace not evicted from ring")
	}
	if tr.Trace(ids[1]) == nil || tr.Trace(ids[2]) == nil {
		t.Fatalf("recent traces evicted")
	}
	if st := tr.Stats(); st.FinishedTraces != 2 {
		t.Fatalf("FinishedTraces = %d, want 2", st.FinishedTraces)
	}
}

func TestPerJobCapsCount(t *testing.T) {
	tr := NewTracer(2)
	jt := tr.Begin("t", "", 0)
	for i := 0; i < maxEventsPerJob+5; i++ {
		jt.Event(EvGrown, 0, 0, "")
	}
	if got := len(jt.Events()); got != maxEventsPerJob {
		t.Fatalf("events len = %d, want cap %d", got, maxEventsPerJob)
	}
	for i := 0; i < maxWavesPerJob+3; i++ {
		w := jt.WaveStart(0, false)
		jt.WaveEnd(w)
	}
	if got := len(jt.Waves()); got != maxWavesPerJob {
		t.Fatalf("waves len = %d, want cap %d", got, maxWavesPerJob)
	}
	if got := jt.Truncated(); got != 8 {
		t.Fatalf("Truncated = %d, want 8", got)
	}
}

func TestOTLPSpanTree(t *testing.T) {
	tr := NewTracer(8)
	jt := tr.Begin("acme", "pipeline", 2)
	jt.Event(EvSubmitted, 1, 0, "")
	jt.Event(EvBlocked, 1, 0, "")
	jt.Event(EvReleased, 1, 0, "")
	jt.Event(EvAdmitted, 1, 0, "")
	jt.Event(EvDispatched, 1, 2, "")
	w0 := jt.WaveStart(1, false)
	w1 := jt.WaveStart(2, true)
	jt.WaveEnd(w1)
	jt.Event(EvJoined, 1, 3, "")
	jt.WaveEnd(w0) // completing participant ends its wave after the join

	doc := jt.OTLP("loopd-test")
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("unexpected document shape: %+v", doc)
	}
	res := doc.ResourceSpans[0].Resource.Attributes
	if len(res) != 1 || res[0].Key != "service.name" || res[0].Value.StringValue != "loopd-test" {
		t.Fatalf("resource attributes = %+v", res)
	}
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	byName := map[string][]OTLPSpan{}
	for _, sp := range spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
		if len(sp.TraceID) != 32 || len(sp.SpanID) != 16 {
			t.Errorf("span %q id lengths: trace %d span %d", sp.Name, len(sp.TraceID), len(sp.SpanID))
		}
		if _, err := strconv.ParseInt(sp.StartTimeUnixNano, 10, 64); err != nil {
			t.Errorf("span %q start not a decimal string: %q", sp.Name, sp.StartTimeUnixNano)
		}
	}
	for _, name := range []string{"job", "blocked", "queued", "run"} {
		if len(byName[name]) != 1 {
			t.Fatalf("want exactly one %q span, got %d (spans: %+v)", name, len(byName[name]), spans)
		}
	}
	if len(byName["wave"]) != 2 {
		t.Fatalf("want 2 wave spans, got %d", len(byName["wave"]))
	}
	root := byName["job"][0]
	if root.ParentSpanID != "" {
		t.Errorf("root span has a parent: %q", root.ParentSpanID)
	}
	run := byName["run"][0]
	for _, name := range []string{"blocked", "queued", "run"} {
		if byName[name][0].ParentSpanID != root.SpanID {
			t.Errorf("%q span parent = %q, want root %q", name, byName[name][0].ParentSpanID, root.SpanID)
		}
	}
	for _, w := range byName["wave"] {
		if w.ParentSpanID != run.SpanID {
			t.Errorf("wave span parent = %q, want run %q", w.ParentSpanID, run.SpanID)
		}
		if w.EndTimeUnixNano == "0" {
			t.Errorf("open wave did not fall back to trace end time")
		}
	}

	// The document must round-trip through encoding/json (the /trace handler
	// serves it verbatim).
	if _, err := json.Marshal(doc); err != nil {
		t.Fatalf("marshal OTLP document: %v", err)
	}

	attrs := map[string]OTLPAnyValue{}
	for _, a := range root.Attributes {
		attrs[a.Key] = a.Value
	}
	if attrs["tenant"].StringValue != "acme" || attrs["label"].StringValue != "pipeline" {
		t.Errorf("root identity attributes wrong: %+v", attrs)
	}
	if attrs["workers.peak"].IntValue != "3" {
		t.Errorf("workers.peak = %q, want \"3\"", attrs["workers.peak"].IntValue)
	}
	if attrs["outcome"].StringValue != "completed" {
		t.Errorf("outcome = %q", attrs["outcome"].StringValue)
	}
}

func TestOTLPCanceledOutcome(t *testing.T) {
	tr := NewTracer(2)
	jt := tr.Begin("t", "", 0)
	jt.Event(EvSubmitted, 0, 0, "")
	jt.Event(EvBlocked, 0, 0, "")
	jt.Event(EvCanceled, 0, 0, "upstream")
	doc := jt.OTLP("x")
	spans := doc.ResourceSpans[0].ScopeSpans[0].Spans
	var root *OTLPSpan
	for i := range spans {
		if spans[i].Name == "job" {
			root = &spans[i]
		}
		if spans[i].Name == "run" || spans[i].Name == "queued" {
			t.Errorf("canceled-while-blocked trace grew a %q span", spans[i].Name)
		}
	}
	if root == nil {
		t.Fatal("no root span")
	}
	for _, a := range root.Attributes {
		if a.Key == "outcome" && a.Value.StringValue != "canceled" {
			t.Errorf("outcome = %q, want canceled", a.Value.StringValue)
		}
	}
}

// TestOTLPGoldenBytes pins the export byte for byte on a deterministic trace
// (caller-timed events and waves through EventAt/WavesAt): a dependency
// wait, a grow, a suspend/resume pause, a lent wave, an open wave and a
// missed deadline. The expected document is the one the exporter produced
// when every event still stored its full StreamEvent, so the compact
// per-job records change nothing a /trace/{job} client can see.
func TestOTLPGoldenBytes(t *testing.T) {
	tr := NewTracer(4)
	jt := tr.BeginAt(7, "acme", "sum", 2)
	base := int64(1_700_000_000_000_000_000)
	typ := []EventType{EvSubmitted, EvBlocked, EvReleased, EvAdmitted, EvDispatched, EvGrown, EvSuspended, EvResumed, EvAdmitted, EvDispatched, EvJoined}
	det := []string{"", "", "", "", "", "", "cursor=4", "cursor=4", "", "", "deadline_missed"}
	wk := []int{0, 0, 0, 0, 2, 3, 0, 0, 0, 1, 3}
	for i := range typ {
		jt.EventAt(typ[i], i%2, wk[i], det[i], time.Unix(0, base+int64(i)*1000))
	}
	for i, ev := range jt.Events() {
		want := StreamEvent{Seq: uint64(i + 1), TimeUnixNano: base + int64(i)*1000, Type: typ[i].String(), Job: 7,
			Tenant: "acme", Label: "sum", Shard: i % 2, Priority: 2, Workers: wk[i], Detail: det[i]}
		if ev != want {
			t.Fatalf("event %d = %+v, want %+v", i, ev, want)
		}
	}
	w := jt.WavesAt(2, 0, false, time.Unix(0, base+4000)) // the second stays open
	l := jt.WavesAt(1, 1, true, time.Unix(0, base+5000))
	jt.waves[w].EndUnixNano = base + 5500
	jt.waves[l].EndUnixNano = base + 6000
	got, err := json.Marshal(jt.OTLP("loopd"))
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"resourceSpans":[{"resource":{"attributes":[{"key":"service.name","value":{"stringValue":"loopd"}}]},"scopeSpans":[{"scope":{"name":"loopsched/internal/trace"},"spans":[{"traceId":"00000000000000000000000000000007","spanId":"0000000000070001","name":"job","kind":1,"startTimeUnixNano":"1700000000000000000","endTimeUnixNano":"1700000000000010000","attributes":[{"key":"job.id","value":{"intValue":"7"}},{"key":"tenant","value":{"stringValue":"acme"}},{"key":"priority","value":{"intValue":"2"}},{"key":"shard","value":{"intValue":"0"}},{"key":"outcome","value":{"stringValue":"completed"}},{"key":"label","value":{"stringValue":"sum"}},{"key":"workers.peak","value":{"intValue":"3"}}]},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070002","parentSpanId":"0000000000070001","name":"blocked","kind":1,"startTimeUnixNano":"1700000000000001000","endTimeUnixNano":"1700000000000002000"},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070003","parentSpanId":"0000000000070001","name":"queued","kind":1,"startTimeUnixNano":"1700000000000008000","endTimeUnixNano":"1700000000000009000"},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070004","parentSpanId":"0000000000070001","name":"run","kind":1,"startTimeUnixNano":"1700000000000009000","endTimeUnixNano":"1700000000000010000","attributes":[{"key":"workers.initial","value":{"intValue":"1"}}]},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070005","parentSpanId":"0000000000070004","name":"wave","kind":1,"startTimeUnixNano":"1700000000000004000","endTimeUnixNano":"1700000000000005500","attributes":[{"key":"shard","value":{"intValue":"0"}}]},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070006","parentSpanId":"0000000000070004","name":"wave","kind":1,"startTimeUnixNano":"1700000000000004000","endTimeUnixNano":"1700000000000010000","attributes":[{"key":"shard","value":{"intValue":"0"}}]},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070007","parentSpanId":"0000000000070004","name":"wave","kind":1,"startTimeUnixNano":"1700000000000005000","endTimeUnixNano":"1700000000000006000","attributes":[{"key":"shard","value":{"intValue":"1"}},{"key":"lent","value":{"boolValue":true}}]},{"traceId":"00000000000000000000000000000007","spanId":"0000000000070008","parentSpanId":"0000000000070001","name":"suspended","kind":1,"startTimeUnixNano":"1700000000000006000","endTimeUnixNano":"1700000000000007000","attributes":[{"key":"cursor","value":{"intValue":"4"}}]}]}]}]}`
	if string(got) != want {
		t.Fatalf("OTLP document changed:\n got %s\nwant %s", got, want)
	}
}

// TestCollectorServesEachOfTheLastCapacity files several rings' worth of
// traces and checks, after every filing, that each of the most recent
// capacity traces is found by id and every older one is evicted.
func TestCollectorServesEachOfTheLastCapacity(t *testing.T) {
	const capacity = 5
	tr := NewTracer(capacity)
	var ids []uint64
	for i := 0; i < 3*capacity+2; i++ {
		jt := tr.Begin("t", "", 0)
		jt.Event(EvJoined, 0, 1, "")
		ids = append(ids, jt.ID)
		for k, id := range ids {
			got := tr.Trace(id)
			if recent := k >= len(ids)-capacity; recent && (got == nil || got.ID != id) {
				t.Fatalf("after %d filings: trace %d missing", i+1, id)
			} else if !recent && got != nil {
				t.Fatalf("after %d filings: evicted trace %d still served", i+1, id)
			}
		}
	}
	if tr.Trace(ids[len(ids)-1]+1) != nil {
		t.Fatal("served a trace for an id never filed")
	}
}

// TestWavesAtCapsAndOverflow covers a release wave straddling the per-job
// cap: the stints that fit are recorded, the rest counted as truncated, and
// WaveEnd ignores the indices of the dropped ones.
func TestWavesAtCapsAndOverflow(t *testing.T) {
	jt := NewTracer(2).Begin("t", "", 0)
	for i := 0; i < maxWavesPerJob-1; i++ {
		jt.WaveStart(0, false)
	}
	first := jt.WavesAt(3, 1, false, time.Unix(0, 42))
	if first != maxWavesPerJob-1 {
		t.Fatalf("WavesAt first = %d, want %d", first, maxWavesPerJob-1)
	}
	for i := 0; i < 3; i++ {
		jt.WaveEnd(first + i)
	}
	waves := jt.Waves()
	if len(waves) != maxWavesPerJob || waves[first].StartUnixNano != 42 || waves[first].EndUnixNano == 0 {
		t.Fatalf("waves len %d, last %+v", len(waves), waves[len(waves)-1])
	}
	if got := jt.WavesAt(1, 0, false, time.Unix(0, 43)); got != -1 {
		t.Fatalf("WavesAt past the cap = %d, want -1", got)
	}
	if got := jt.Truncated(); got != 3 {
		t.Fatalf("Truncated = %d, want 3", got)
	}
}
