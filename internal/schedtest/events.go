// events.go adds the lifecycle event-order invariants to the harness: a
// subscriber's view of a traced run must show every job moving through its
// transitions in causal order. The asserts encode exactly the guarantees the
// runtime makes — and deliberately not more: worker-churn events that race
// the join wave by design (a peeling participant has already left the
// sub-team when it records the event) are only ordered against dispatch.
package schedtest

import (
	"sort"
	"testing"

	"loopsched/internal/trace"
)

// AssertEventOrder groups a traced run's delivered events by job and asserts
// the causal-order invariants on each:
//
//   - submitted is the job's first event and appears exactly once;
//   - blocked, released, admitted, dispatched, joined and canceled appear at
//     most once, with blocked < released < admitted and
//     admitted < dispatched < joined;
//   - dispatched and canceled are mutually exclusive (the admission CAS picks
//     exactly one winner), and joined and canceled are too;
//   - stolen sits between admitted and dispatched (a job is only stolen while
//     queued);
//   - suspended and resumed strictly alternate, each resume re-admits (so
//     admitted/dispatched appear once per admission segment instead), and a
//     cancel after a suspension is legal even on a dispatched job;
//   - suspend_absorbed (a suspend request the completion absorbed) appears
//     at most once, after dispatched and before joined, and only on a job
//     that joined;
//   - grown, lent, peeled and preempted require a dispatch, and grown/lent
//     happen strictly before the join (the grow CAS holds a participant, so
//     the job cannot complete first); peeled and preempted may trail it;
//   - every event of a job carries the same tenant.
//
// Events are ordered by their tracer sequence number, so interleaved delivery
// of concurrent jobs is fine; the caller must pass a drop-free view (use an
// ample subscriber buffer or JobTrace.Events).
func AssertEventOrder(t testing.TB, events []trace.StreamEvent) {
	t.Helper()
	byJob := make(map[uint64][]trace.StreamEvent)
	for _, ev := range events {
		byJob[ev.Job] = append(byJob[ev.Job], ev)
	}
	for id, evs := range byJob {
		sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })

		first := make(map[string]uint64)
		count := make(map[string]int)
		for _, ev := range evs {
			if _, ok := first[ev.Type]; !ok {
				first[ev.Type] = ev.Seq
			}
			count[ev.Type]++
			if ev.Tenant != evs[0].Tenant {
				t.Errorf("job %d: event %q tenant %q != %q", id, ev.Type, ev.Tenant, evs[0].Tenant)
			}
		}

		if evs[0].Type != "submitted" {
			t.Errorf("job %d: first event is %q, want submitted", id, evs[0].Type)
		}
		// Every resume re-admits (and possibly re-dispatches) the job, so
		// those two appear once per lifetime segment; the rest are one-shot.
		suspends, resumes := count["suspended"], count["resumed"]
		for _, typ := range []string{"submitted", "blocked", "released", "joined", "canceled", "suspend_absorbed"} {
			if count[typ] > 1 {
				t.Errorf("job %d: %d %q events, want at most 1", id, count[typ], typ)
			}
		}
		for _, typ := range []string{"admitted", "dispatched"} {
			if count[typ] > 1+resumes {
				t.Errorf("job %d: %d %q events, want at most %d (one per admission segment)",
					id, count[typ], typ, 1+resumes)
			}
		}
		// suspended/resumed strictly alternate: a park is resumed before the
		// next park, and a resume needs a preceding park. A trailing
		// unresumed suspension is legal (the job was canceled while parked).
		parked := 0
		for _, ev := range evs {
			switch ev.Type {
			case "suspended":
				if parked++; parked > 1 {
					t.Errorf("job %d: suspended (seq %d) while already parked", id, ev.Seq)
				}
			case "resumed":
				if parked == 0 {
					t.Errorf("job %d: resumed (seq %d) without a preceding suspended", id, ev.Seq)
				} else {
					parked--
				}
			}
		}
		if resumes > suspends {
			t.Errorf("job %d: %d resumed events for %d suspensions", id, resumes, suspends)
		}
		// A dispatch and a cancel are mutually exclusive winners of the
		// admission CAS — unless a suspension sat in between (dispatched, then
		// parked, then canceled while parked).
		if count["dispatched"] > 0 && count["canceled"] > 0 && suspends == 0 {
			t.Errorf("job %d: both dispatched and canceled", id)
		}
		if count["joined"] > 0 && count["canceled"] > 0 {
			t.Errorf("job %d: both joined and canceled", id)
		}

		// ordered asserts a < b when both types were observed.
		ordered := func(a, b string) {
			if sa, ok := first[a]; ok {
				if sb, ok := first[b]; ok && sa >= sb {
					t.Errorf("job %d: %q (seq %d) not before %q (seq %d)", id, a, sa, b, sb)
				}
			}
		}
		ordered("submitted", "blocked")
		ordered("blocked", "released")
		ordered("released", "admitted")
		ordered("submitted", "admitted")
		ordered("admitted", "dispatched")
		ordered("dispatched", "joined")
		ordered("admitted", "suspended")
		ordered("suspended", "resumed")
		ordered("dispatched", "suspend_absorbed")
		ordered("suspend_absorbed", "joined")
		if count["suspend_absorbed"] > 0 && count["joined"] == 0 {
			t.Errorf("job %d: suspend_absorbed without joined", id)
		}

		dispatched, hasDispatched := first["dispatched"]
		joined, hasJoined := first["joined"]
		admitted, hasAdmitted := first["admitted"]
		for _, ev := range evs {
			switch ev.Type {
			case "grown", "lent", "peeled", "preempted":
				if !hasDispatched {
					t.Errorf("job %d: %q without a dispatch", id, ev.Type)
				} else if ev.Seq <= dispatched {
					t.Errorf("job %d: %q (seq %d) before dispatched (seq %d)", id, ev.Type, ev.Seq, dispatched)
				}
				if (ev.Type == "grown" || ev.Type == "lent") && hasJoined && ev.Seq >= joined {
					t.Errorf("job %d: %q (seq %d) after joined (seq %d)", id, ev.Type, ev.Seq, joined)
				}
			case "stolen":
				if !hasAdmitted {
					t.Errorf("job %d: stolen without admission", id)
				} else if ev.Seq <= admitted {
					t.Errorf("job %d: stolen (seq %d) before admitted (seq %d)", id, ev.Seq, admitted)
				}
				// A resumed job is re-queued and stealable again, so the
				// stolen-only-while-queued window repeats per segment; the
				// strict check holds only for an uninterrupted lifecycle.
				if suspends == 0 && hasDispatched && ev.Seq >= dispatched {
					t.Errorf("job %d: stolen (seq %d) after dispatched (seq %d)", id, ev.Seq, dispatched)
				}
			}
		}
	}
}
