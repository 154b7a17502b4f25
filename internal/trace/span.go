// span.go is the lifecycle tracing layer on top of the counters in trace.go:
// per-job traces made of lifecycle events (submitted, admitted, dispatched,
// grown, peeled, preempted, stolen, joined, ...) and per-chunk-wave child
// spans (one per participant stint on the job), exported as OTLP-compatible
// JSON (see otlp.go) through a ring-buffered collector, plus a fan-out of the
// event stream to bounded subscribers that drop-and-count instead of ever
// blocking the scheduler.
//
// The layer is dependency-free and allocation-conscious: with no Tracer
// configured every hook in the jobs runtime is a single nil check, and with
// tracing on a job costs one allocation (its JobTrace, which holds a normal
// lifecycle inline) and each transition one mutex-guarded append on the job's
// own trace, timed by the clock read the scheduler already took, plus a
// non-blocking send per subscriber when there are any. Nothing here
// is ever on the per-chunk execution path — waves are recorded per
// participant stint, not per chunk claim.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventType enumerates the job lifecycle transitions carried by the stream.
type EventType uint8

// Lifecycle event types, in the order a job normally passes through them.
// submitted always comes first; admitted always precedes dispatched, which
// always precedes joined. blocked/released bracket dependency waits before
// admitted. grown/lent/preempted happen strictly between dispatched and
// joined; peeled may trail joined by a beat (the peeling participant has
// already left the sub-team when it records the event, so the join wave can
// complete concurrently).
const (
	EvSubmitted EventType = iota
	EvBlocked
	EvReleased
	EvAdmitted
	EvDispatched
	EvGrown
	EvLent
	EvPeeled
	EvPreempted
	EvStolen
	EvJoined
	EvCanceled
	// EvShed is terminal like joined/canceled: the submission was rejected
	// by admission control (deadline infeasible, queue backlogged past the
	// bounded wait, or the tenant's circuit breaker open — the Detail names
	// which) and the job never entered a queue.
	EvShed
	// EvSuspended/EvResumed bracket a checkpointed pause: the job left every
	// queue and sub-team with its cursor watermark captured (Detail carries
	// "cursor=<n>"), then re-entered admission from that watermark — possibly
	// in a different process, recovered from a checkpoint store under the
	// same job id.
	EvSuspended
	EvResumed
	// EvSuspendAbsorbed marks a suspend request accepted on a running job
	// that completed instead of parking, because its cursor drained before
	// the participants quiesced. It is recorded just before joined.
	EvSuspendAbsorbed

	numEventTypes
)

var eventTypeNames = [numEventTypes]string{
	EvSubmitted:  "submitted",
	EvBlocked:    "blocked",
	EvReleased:   "released",
	EvAdmitted:   "admitted",
	EvDispatched: "dispatched",
	EvGrown:      "grown",
	EvLent:       "lent",
	EvPeeled:     "peeled",
	EvPreempted:  "preempted",
	EvStolen:     "stolen",
	EvJoined:     "joined",
	EvCanceled:   "canceled",
	EvShed:       "shed",
	EvSuspended:  "suspended",
	EvResumed:    "resumed",

	EvSuspendAbsorbed: "suspend_absorbed",
}

// String implements fmt.Stringer.
func (e EventType) String() string {
	if int(e) < len(eventTypeNames) {
		return eventTypeNames[e]
	}
	return "unknown"
}

// StreamEvent is one lifecycle transition of one job, as delivered to
// subscribers and serialized on the loopd /events feed. The JSON field names
// are stable.
type StreamEvent struct {
	// Seq is a tracer-wide monotonic sequence number. Causally ordered
	// transitions (submitted before admitted before dispatched before joined)
	// always carry increasing Seq; only genuinely concurrent events (two
	// workers growing at once) may be observed out of Seq order.
	Seq uint64 `json:"seq"`
	// TimeUnixNano is the wall-clock time of the transition.
	TimeUnixNano int64 `json:"time_unix_nano"`
	// Type is the EventType name ("submitted", "dispatched", ...).
	Type string `json:"type"`
	// Job is the tracer-assigned job id (also the id under GET /trace/{job}).
	Job uint64 `json:"job"`
	// Tenant and Label identify the job: the tenant account it is charged to
	// and the request's diagnostic label.
	Tenant string `json:"tenant"`
	Label  string `json:"label,omitempty"`
	// Shard is the shard the transition happened on (0 for standalone
	// schedulers). A stolen event carries the thief's shard; Detail names the
	// victim.
	Shard int `json:"shard"`
	// Priority is the job's admission priority class.
	Priority int `json:"priority"`
	// Workers is the transition's worker count: the initial sub-team size for
	// dispatched, the participant count after the change for grown/lent/
	// peeled, the posted shrink target for preempted, and the peak sub-team
	// size for joined. Zero when not meaningful.
	Workers int `json:"workers,omitempty"`
	// Detail carries transition-specific context: "deadline_missed" on a
	// joined event past its deadline, "from=<shard>" on stolen, "upstream" on
	// a cancellation propagated down the dependency graph.
	Detail string `json:"detail,omitempty"`
}

// Per-job caps keeping one pathological job (unbounded elastic churn) from
// growing its trace without limit; overflow is counted, not silently lost.
const (
	maxEventsPerJob = 512
	maxWavesPerJob  = 256
)

// Wave is one participant's chunk-wave on an elastic job — the stint from
// joining the sub-team (release wave, growth, or a cross-shard loan) to
// leaving it (peel or join wave). Rigid jobs record one wave per sub-worker.
type Wave struct {
	// Shard is the shard owning the participating worker — for a lent worker,
	// the lender's shard, not the job's.
	Shard int `json:"shard"`
	// Lent marks a cross-shard loan: the worker belonged to a sibling shard.
	Lent          bool  `json:"lent,omitempty"`
	StartUnixNano int64 `json:"start_unix_nano"`
	// EndUnixNano is zero while the stint is still running (the completing
	// participant records its end just after the join wave publishes the
	// result; exporters fall back to the trace end time).
	EndUnixNano int64 `json:"end_unix_nano"`
}

// Inline capacities of a JobTrace: a normal lifecycle (submitted, admitted,
// dispatched, joined, plus a grow or peel) and the initial sub-team's stints
// on a small team fit without a second allocation; longer lives spill to the
// heap through append, up to the per-job caps.
const (
	inlineEvents = 6
	inlineWaves  = 2
)

// record is one lifecycle event as stored on its job's trace. The job's
// identity (id, tenant, label, priority) lives once on the JobTrace, not on
// every record; events rebuilds the full StreamEvent.
type record struct {
	seq     uint64
	time    int64
	detail  string
	shard   int32
	workers int32
	typ     EventType
}

// JobTrace is one job's trace: identity, the ordered lifecycle events, and
// the per-chunk-wave participant stints. A nil *JobTrace is valid and records
// nothing, so an untraced scheduler pays one nil check per hook.
type JobTrace struct {
	// ID is the tracer-assigned job id; Tenant, Label and Priority are copied
	// from the request. All are immutable after Begin.
	ID       uint64
	Tenant   string
	Label    string
	Priority int

	t *Tracer

	mu        sync.Mutex
	records   []record
	waves     []Wave
	truncated int // events and waves dropped past the per-job caps
	finished  bool

	// recordBuf/waveBuf back records and waves until they outgrow them, so a
	// traced job costs one allocation: this struct.
	recordBuf [inlineEvents]record
	waveBuf   [inlineWaves]Wave
}

func newJobTrace(t *Tracer, id uint64, tenant, label string, priority int) *JobTrace {
	jt := &JobTrace{ID: id, Tenant: tenant, Label: label, Priority: priority, t: t}
	jt.records = jt.recordBuf[:0]
	jt.waves = jt.waveBuf[:0]
	return jt
}

// event rebuilds the StreamEvent of one record.
func (jt *JobTrace) event(r *record) StreamEvent {
	return StreamEvent{
		Seq:          r.seq,
		TimeUnixNano: r.time,
		Type:         r.typ.String(),
		Job:          jt.ID,
		Tenant:       jt.Tenant,
		Label:        jt.Label,
		Shard:        int(r.shard),
		Priority:     jt.Priority,
		Workers:      int(r.workers),
		Detail:       r.detail,
	}
}

// Event records one lifecycle transition, timed now, and publishes it to the
// tracer's subscribers. A joined, canceled or shed event finishes the trace
// and files it in the tracer's collector ring (first terminal event wins).
// Safe on a nil receiver.
func (jt *JobTrace) Event(typ EventType, shard, workers int, detail string) {
	if jt == nil {
		return
	}
	jt.EventAt(typ, shard, workers, detail, time.Now())
}

// EventAt is Event for a transition the caller has already timed: the
// scheduler passes the clock read it takes for its own accounting (submit,
// dispatch and completion times) instead of reading the clock again. Safe on
// a nil receiver.
func (jt *JobTrace) EventAt(typ EventType, shard, workers int, detail string, at time.Time) {
	if jt == nil {
		return
	}
	t := jt.t
	r := record{
		seq:     t.seq.Add(1),
		time:    at.UnixNano(),
		detail:  detail,
		shard:   int32(shard),
		workers: int32(workers),
		typ:     typ,
	}
	jt.mu.Lock()
	if len(jt.records) < maxEventsPerJob {
		jt.records = append(jt.records, r)
	} else {
		jt.truncated++
	}
	finish := (typ == EvJoined || typ == EvCanceled || typ == EvShed) && !jt.finished
	if finish {
		jt.finished = true
	}
	jt.mu.Unlock()
	if finish {
		t.col.add(jt)
	}
	if t.subscribers.Load() > 0 {
		t.publish(jt.event(&r))
	}
}

// WaveStart records the beginning of one participant stint, timed now, and
// returns its index for WaveEnd. Safe on a nil receiver (returns -1).
func (jt *JobTrace) WaveStart(shard int, lent bool) int {
	if jt == nil {
		return -1
	}
	return jt.WavesAt(1, shard, lent, time.Now())
}

// WavesAt records the beginning of n participant stints that all started at
// at (a release wave hands a job to its initial sub-team at once) and
// returns the index of the first (-1 when the per-job cap is already
// reached); stint i's index is first+i, and WaveEnd ignores the indices of
// stints that fell past the cap. Safe on a nil receiver (returns -1).
func (jt *JobTrace) WavesAt(n, shard int, lent bool, at time.Time) (first int) {
	if jt == nil {
		return -1
	}
	w := Wave{Shard: shard, Lent: lent, StartUnixNano: at.UnixNano()}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	first = len(jt.waves)
	fit := min(n, maxWavesPerJob-first)
	for range fit {
		jt.waves = append(jt.waves, w)
	}
	jt.truncated += n - fit
	if fit == 0 {
		return -1
	}
	return first
}

// WaveEnd records the end of the stint started as wave i. Safe on a nil
// receiver and on i == -1 (an overflowed WaveStart).
func (jt *JobTrace) WaveEnd(i int) {
	if jt == nil || i < 0 {
		return
	}
	now := time.Now().UnixNano()
	jt.mu.Lock()
	if i < len(jt.waves) {
		jt.waves[i].EndUnixNano = now
	}
	jt.mu.Unlock()
}

// snapshot copies the events, waves and truncation count under one lock.
func (jt *JobTrace) snapshot() ([]StreamEvent, []Wave, int) {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	var events []StreamEvent
	if len(jt.records) > 0 {
		events = make([]StreamEvent, len(jt.records))
		for i := range jt.records {
			events[i] = jt.event(&jt.records[i])
		}
	}
	return events, append([]Wave(nil), jt.waves...), jt.truncated
}

// Events returns a copy of the lifecycle events recorded so far, in record
// order. Safe on a nil receiver (returns nil).
func (jt *JobTrace) Events() []StreamEvent {
	if jt == nil {
		return nil
	}
	events, _, _ := jt.snapshot()
	return events
}

// Waves returns a copy of the participant stints recorded so far.
func (jt *JobTrace) Waves() []Wave {
	if jt == nil {
		return nil
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return append([]Wave(nil), jt.waves...)
}

// Finished reports whether a terminal event (joined or canceled) has been
// recorded. Safe on a nil receiver.
func (jt *JobTrace) Finished() bool {
	if jt == nil {
		return false
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.finished
}

// Truncated returns the number of events and waves dropped past the per-job
// caps (0 for well-behaved jobs).
func (jt *JobTrace) Truncated() int {
	if jt == nil {
		return 0
	}
	jt.mu.Lock()
	defer jt.mu.Unlock()
	return jt.truncated
}

// Tracer is the lifecycle tracing hub: it assigns job ids, fans the event
// stream out to subscribers, and keeps the most recent finished job traces in
// a ring for span export. All methods are safe for concurrent use; a nil
// *Tracer is valid and does nothing, so schedulers run untraced at the cost
// of a nil check per hook.
type Tracer struct {
	ids     atomic.Uint64
	seq     atomic.Uint64
	dropped atomic.Int64

	subMu sync.RWMutex
	subs  map[*Subscription]struct{}
	// subscribers mirrors len(subs) (stored under subMu) so an event with
	// nobody listening skips the lock and the map walk.
	subscribers atomic.Int32

	col collector
}

// NewTracer creates a tracer whose collector keeps the most recent capacity
// finished job traces (<= 0 selects 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	t := &Tracer{subs: make(map[*Subscription]struct{})}
	t.col.init(capacity)
	return t
}

// Begin starts a job trace: assigns the job id and fixes its identity.
// Safe on a nil receiver (returns nil, and every JobTrace method is nil-safe,
// so hooks need no further guard).
func (t *Tracer) Begin(tenant, label string, priority int) *JobTrace {
	if t == nil {
		return nil
	}
	return newJobTrace(t, t.ids.Add(1), tenant, label, priority)
}

// BeginAt starts a job trace under a caller-chosen id — the crash-recovery
// path, which re-admits unfinished jobs from a checkpoint store under their
// original ids so /trace/{job} and /events subscribers observe one
// continuous lifecycle across restarts. The internal id counter is advanced
// to at least id, so later Begin calls never collide with a recovered id.
// Safe on a nil receiver.
func (t *Tracer) BeginAt(id uint64, tenant, label string, priority int) *JobTrace {
	if t == nil {
		return nil
	}
	for {
		cur := t.ids.Load()
		if cur >= id || t.ids.CompareAndSwap(cur, id) {
			break
		}
	}
	return newJobTrace(t, id, tenant, label, priority)
}

// Trace returns the finished trace of the given job id, or nil when the job
// has not finished or its trace was evicted from the ring. Safe on a nil
// receiver.
func (t *Tracer) Trace(id uint64) *JobTrace {
	if t == nil {
		return nil
	}
	return t.col.get(id)
}

// publish fans one event out to every matching subscriber with a non-blocking
// send: a subscriber whose buffer is full loses the event and has its drop
// counter incremented — the scheduler never blocks on a slow consumer.
func (t *Tracer) publish(ev StreamEvent) {
	t.subMu.RLock()
	for s := range t.subs {
		if s.tenant != "" && s.tenant != ev.Tenant {
			continue
		}
		if s.job != 0 && s.job != ev.Job {
			continue
		}
		select {
		case s.c <- ev:
		default:
			s.dropped.Add(1)
			t.dropped.Add(1)
		}
	}
	t.subMu.RUnlock()
}

// TracerStats is a snapshot of the tracer's own accounting.
type TracerStats struct {
	// EventsTotal counts lifecycle events ever emitted; DroppedTotal counts
	// subscriber deliveries lost to full buffers (one event sent to three
	// full subscribers counts three drops).
	EventsTotal  int64 `json:"events_total"`
	DroppedTotal int64 `json:"dropped_total"`
	// Subscribers is the number of live subscriptions; FinishedTraces the
	// number of finished job traces currently held in the collector ring.
	Subscribers    int `json:"subscribers"`
	FinishedTraces int `json:"finished_traces"`
}

// Stats returns the tracer's accounting snapshot. Safe on a nil receiver.
func (t *Tracer) Stats() TracerStats {
	if t == nil {
		return TracerStats{}
	}
	return TracerStats{
		EventsTotal:    int64(t.seq.Load()),
		DroppedTotal:   t.dropped.Load(),
		Subscribers:    int(t.subscribers.Load()),
		FinishedTraces: t.col.len(),
	}
}

// Subscription is one bounded subscriber of the lifecycle event stream,
// optionally filtered by tenant and/or job id.
type Subscription struct {
	c       chan StreamEvent
	t       *Tracer
	tenant  string
	job     uint64
	dropped atomic.Int64
}

// Subscribe registers a subscriber with the given buffer capacity (<= 0
// selects 256). tenant filters to one tenant account ("" passes all); job
// filters to one job id (0 passes all). Safe on a nil receiver (returns nil).
func (t *Tracer) Subscribe(buffer int, tenant string, job uint64) *Subscription {
	if t == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = 256
	}
	s := &Subscription{c: make(chan StreamEvent, buffer), t: t, tenant: tenant, job: job}
	t.subMu.Lock()
	t.subs[s] = struct{}{}
	t.subscribers.Store(int32(len(t.subs)))
	t.subMu.Unlock()
	return s
}

// Events returns the subscriber's channel. The channel is never closed; pair
// the receive with a context or done channel and call Close when finished.
func (s *Subscription) Events() <-chan StreamEvent { return s.c }

// Dropped returns the number of events this subscriber lost to a full buffer.
func (s *Subscription) Dropped() int64 { return s.dropped.Load() }

// Close unregisters the subscriber; no further events are delivered after it
// returns (events already buffered remain readable). Safe to call once.
func (s *Subscription) Close() {
	s.t.subMu.Lock()
	delete(s.t.subs, s)
	s.t.subscribers.Store(int32(len(s.t.subs)))
	s.t.subMu.Unlock()
}

// collector is the ring buffer of finished job traces. Lookups by job id
// scan it newest first: they serve the rare GET /trace/{job}, while filing a
// trace happens once per job and must stay a slot store.
type collector struct {
	mu   sync.Mutex
	ring []*JobTrace
	next int
	n    int
}

func (c *collector) init(capacity int) {
	c.ring = make([]*JobTrace, capacity)
}

func (c *collector) add(jt *JobTrace) {
	c.mu.Lock()
	c.ring[c.next] = jt
	c.next = (c.next + 1) % len(c.ring)
	if c.n < len(c.ring) {
		c.n++
	}
	c.mu.Unlock()
}

func (c *collector) get(id uint64) *JobTrace {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, i := 0, c.next; k < c.n; k++ {
		if i--; i < 0 {
			i = len(c.ring) - 1
		}
		if jt := c.ring[i]; jt.ID == id {
			return jt
		}
	}
	return nil
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}
