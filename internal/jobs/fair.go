package jobs

// fair.go is the admission *policy* layer: per-tenant accounts with weights,
// job priorities and deadlines, arbitrated by a stride-based weighted fair
// queue that replaces the scheduler's original single FIFO.
//
// Policy, in precedence order:
//
//  1. Priority classes are strict: a waiting job with a higher Priority is
//     always admitted before every lower-priority job, whatever its tenant.
//  2. Within a priority class, tenants are arbitrated by stride scheduling:
//     each tenant holds a virtual-time pass advanced by stride = K/weight on
//     every admission, and the tenant with the smallest pass goes next, so
//     over any saturated window tenants are served in proportion to their
//     weights. An idling tenant's pass is caught up to the queue's clock
//     when it becomes active again, so credit cannot be banked.
//  3. When two tenants' equal-priority heads BOTH carry deadlines, they are
//     tie-broken EDF (earliest deadline first) before the stride
//     comparison; a deadline never beats deadline-less work by mere
//     presence (that would let one tenant starve its class by stamping
//     deadlines on everything). Within one tenant the order is priority
//     desc, deadline asc (none last), FIFO — a tenant's own deadline jobs
//     may jump its own queue freely.
//
// The arbitration is deliberately kept off the execution hot path (cf. the
// availability/ordering tension in PAPERS.md: global arbitration must not
// serialize the wait-free serving paths): workers still claim chunks with a
// single atomic add, and the fair queue's mutex is taken only per job
// admission, steal or stats snapshot — never per chunk.
//
// Preemption is chunk-granular and reuses the elastic peel path: when
// tenants are waiting and no worker is idle, the dispatcher computes each
// running tenant's weighted share of the team and posts a shrink target on
// over-share running jobs (halved further when the best waiting job has a
// higher priority than the victim or a deadline at risk). Participants
// observe the target between chunks and peel — never below one participant,
// so no work is lost and the victim's join wave still completes.

import (
	"container/heap"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/barrier"
)

// strideScale is the stride numerator: a tenant's pass advances by
// strideScale/weight per admission, so a weight-3 tenant is admitted three
// times as often as a weight-1 tenant under saturation.
const strideScale = 1 << 16

// defaultTenant is the account of jobs submitted without a tenant name.
const defaultTenant = "default"

// tenantName normalizes a request's tenant to its account name.
func tenantName(name string) string {
	if name == "" {
		return defaultTenant
	}
	return name
}

// TenantStats is one tenant's slice of a scheduler's Stats. The JSON field
// names are stable (cmd/loopd serves them and labels the tenant-labelled
// /metrics series from this struct).
type TenantStats struct {
	// Weight is the tenant's fair-share weight (1 unless configured).
	Weight int `json:"weight"`
	// QueueDepth is the number of the tenant's jobs currently waiting in
	// this scheduler's fair queue.
	QueueDepth int `json:"queue_depth"`
	// Submitted and Completed count the tenant's jobs; on a sharded pool a
	// stolen job is submitted on one shard and completed on another, so the
	// per-shard values differ while the pool-wide sums reconcile.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	// IterationsDone is the tenant's served work: loop iterations completed.
	IterationsDone int64 `json:"iterations_done"`
	// Preempted counts shrink requests the dispatcher posted against the
	// tenant's running jobs to serve other waiting tenants.
	Preempted int64 `json:"preempted_total"`
	// DeadlineMissed counts the tenant's jobs that completed after their
	// requested deadline.
	DeadlineMissed int64 `json:"deadline_missed_total"`
	// WaitSumSeconds is the cumulative submission-to-admission wait over the
	// tenant's completed jobs (with Completed, the _sum/_count pair of a
	// wait-time summary).
	WaitSumSeconds float64 `json:"wait_sum_seconds"`
	// RunSumSeconds is the cumulative admission-to-completion time over the
	// tenant's completed jobs (with Completed, the _sum/_count pair of a
	// run-time summary).
	RunSumSeconds float64 `json:"run_sum_seconds"`
	// DeadlineJobsTotal counts completed jobs that carried a deadline;
	// DeadlineMissed of them finished late, the rest hit. Cumulative, so the
	// SLO window's hit ratio reconciles against these totals.
	DeadlineJobsTotal int64 `json:"deadline_jobs_total"`
	// ShedTotal counts the tenant's submissions rejected by admission
	// control: InfeasibleTotal (deadline unmeetable at submit) plus
	// BackloggedTotal (bounded queue wait expired) plus breaker rejections.
	// BreakerState is the tenant's circuit-breaker state ("closed", "open",
	// "half-open"); empty when breakers are disabled or the tenant has no
	// admission history. All four are filled only on top-level snapshots (a
	// standalone scheduler's Stats, a Sharded pool's merged totals) — the
	// admission state is pool-wide, not per shard.
	ShedTotal       int64  `json:"shed_total,omitempty"`
	InfeasibleTotal int64  `json:"infeasible_total,omitempty"`
	BackloggedTotal int64  `json:"backlogged_total,omitempty"`
	BreakerState    string `json:"breaker_state,omitempty"`
	// SLO is the tenant's rolling-window SLO snapshot (see slo.go): deadline
	// hit ratio, burn rate, and wait/run quantiles over the recent window.
	// Nil until the tenant's first completion.
	SLO *TenantSLO `json:"slo,omitempty"`

	// Raw SLO windows backing SLO, carried unexported so a Sharded pool can
	// merge the per-shard windows into pool-wide quantiles at the same
	// instant (same pattern as the scheduler's latency windows).
	sloWait, sloRun    []float64
	sloHits, sloMisses int
}

// tenant is one per-tenant account: the fair-queue state guarded by the
// owning fairQueue's mutex, plus atomic served/wait counters updated from
// submit and completion paths without the queue lock.
type tenant struct {
	name string

	// Guarded by fairQueue.mu.
	weight int
	pass   uint64
	q      jobHeap

	// Atomics. depth is the hot one: shard stealing moves it lock-free from
	// worker goroutines (sharded.go) while submitters bump the metering
	// counters below, so it gets its own cache line to keep a steal wave from
	// ping-ponging the line the submit path writes.
	depth          barrier.PaddedInt64
	submitted      atomic.Int64
	completed      atomic.Int64
	iters          atomic.Int64
	preempted      atomic.Int64
	deadlineMissed atomic.Int64
	deadlineJobs   atomic.Int64
	waitNanos      atomic.Int64
	runNanos       atomic.Int64

	// slo is the tenant's rolling window of completion samples (see slo.go);
	// internally locked, touched once per job completion.
	slo sloRing
}

// stride is the pass increment per admission: inversely proportional to the
// weight, floored so a zero or negative configured weight behaves as 1.
func (t *tenant) stride() uint64 {
	w := t.weight
	if w < 1 {
		w = 1
	}
	return strideScale / uint64(w)
}

// deadlineKey maps a job's deadline to a sortable key; the zero deadline
// (none) sorts after every real one.
func deadlineKey(j *Job) int64 {
	if j.deadline.IsZero() {
		return math.MaxInt64
	}
	return j.deadline.UnixNano()
}

// jobLess is the within-tenant admission order: priority descending, then
// EDF (earliest deadline first), then submission order.
func jobLess(a, b *Job) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	if da, db := deadlineKey(a), deadlineKey(b); da != db {
		return da < db
	}
	return a.seq < b.seq
}

// jobHeap is a min-heap under jobLess: the root is the tenant's next job.
type jobHeap []*Job

func (h jobHeap) Len() int           { return len(h) }
func (h jobHeap) Less(i, j int) bool { return jobLess(h[i], h[j]) }
func (h jobHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)        { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// fairQueue is the admission queue of one scheduler: per-tenant job heaps
// arbitrated by the policy above. All methods are safe for concurrent use
// (the dispatcher pops locally, sibling shards pop through steals, and
// submitters and stats readers touch the accounts).
type fairQueue struct {
	mu sync.Mutex
	// fifo disables the policy (Config.DisableFair): jobs are admitted in
	// global submission order, priorities, deadlines and weights ignored.
	// The tenant accounts still meter served work.
	fifo    bool
	tenants map[string]*tenant
	order   []*tenant // stable scan order for deterministic arbitration
	fifoQ   []*Job
	clock   uint64 // pass of the most recently admitted tenant
	size    int
	seq     uint64
}

func newFairQueue(fifo bool, weights map[string]int) *fairQueue {
	fq := &fairQueue{fifo: fifo, tenants: make(map[string]*tenant)}
	for name, w := range weights {
		fq.setWeight(name, w)
	}
	return fq
}

// account returns (creating if needed) the named tenant's account; name must
// already be normalized. Callers must hold fq.mu.
func (fq *fairQueue) accountLocked(name string) *tenant {
	t, ok := fq.tenants[name]
	if !ok {
		t = &tenant{name: name, weight: 1}
		fq.tenants[name] = t
		fq.order = append(fq.order, t)
	}
	return t
}

// account is accountLocked behind the lock, for submit/completion metering.
func (fq *fairQueue) account(name string) *tenant {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return fq.accountLocked(name)
}

// setWeight registers or re-weights a tenant; weights < 1 are clamped to 1.
func (fq *fairQueue) setWeight(name string, weight int) {
	if weight < 1 {
		weight = 1
	}
	fq.mu.Lock()
	fq.accountLocked(tenantName(name)).weight = weight
	fq.mu.Unlock()
}

// push enqueues a job under its tenant's account.
func (fq *fairQueue) push(j *Job) {
	fq.mu.Lock()
	t := fq.accountLocked(j.tenant)
	j.seq = fq.seq
	fq.seq++
	if fq.fifo {
		fq.fifoQ = append(fq.fifoQ, j)
	} else {
		if t.q.Len() == 0 && t.pass < fq.clock {
			// An idling tenant re-activates at the queue's clock: unused
			// share is not banked against the active tenants.
			t.pass = fq.clock
		}
		heap.Push(&t.q, j)
	}
	fq.size++
	t.depth.Add(1)
	fq.mu.Unlock()
}

// pushBatch enqueues every non-degenerate job of a batch under ONE lock
// acquisition — the fair-queue half of SubmitBatch's amortized intake.
// Entries that are nil or degenerate (N <= 0: completed inline by the
// submitter, never queued) are skipped, so the caller can hand over its
// result slice as-is. When meter is set each queued job also bumps its
// tenant's submitted counter here, folding the per-job account() round trip
// of the single-submit path into the same critical section.
func (fq *fairQueue) pushBatch(jobs []*Job, meter bool) {
	fq.mu.Lock()
	for _, j := range jobs {
		if j == nil || j.req.N <= 0 {
			continue
		}
		t := fq.accountLocked(j.tenant)
		j.seq = fq.seq
		fq.seq++
		if fq.fifo {
			fq.fifoQ = append(fq.fifoQ, j)
		} else {
			if t.q.Len() == 0 && t.pass < fq.clock {
				t.pass = fq.clock
			}
			heap.Push(&t.q, j)
		}
		fq.size++
		t.depth.Add(1)
		if meter {
			t.submitted.Add(1)
		}
	}
	fq.mu.Unlock()
}

// headBetter reports whether tenant a's next job should be admitted before
// tenant b's: priority class first; then, only when BOTH heads carry
// deadlines, EDF — a deadline must order deadline work, never beat
// deadline-less work by mere presence, or a tenant could starve every
// sibling in its class just by stamping deadlines on its jobs; then the
// smaller stride pass (the weighted-fair order); then submission order
// (full determinism for equal passes).
func headBetter(a, b *tenant) bool {
	ja, jb := a.q[0], b.q[0]
	if ja.prio != jb.prio {
		return ja.prio > jb.prio
	}
	if da, db := deadlineKey(ja), deadlineKey(jb); da != db && da != math.MaxInt64 && db != math.MaxInt64 {
		return da < db
	}
	if a.pass != b.pass {
		return a.pass < b.pass
	}
	return ja.seq < jb.seq
}

// bestLocked returns the tenant whose head job the policy admits next,
// while also advancing fq.clock to the stride virtual time: the minimum
// pass among tenants with queued work. The clock deliberately ignores WHICH
// tenant won (a priority or EDF pop can select a tenant whose pass is far
// ahead); re-activation catches an idle tenant up to the class floor, not
// to an inflated winner's pass, so queue flicker never forfeits earned
// share and a priority burst never locks re-activating tenants out.
// Callers must hold fq.mu; fifo mode never reaches here.
func (fq *fairQueue) bestLocked() *tenant {
	var best *tenant
	first := true
	var minPass uint64
	for _, t := range fq.order {
		if t.q.Len() == 0 {
			continue
		}
		if first || t.pass < minPass {
			minPass = t.pass
			first = false
		}
		if best == nil || headBetter(t, best) {
			best = t
		}
	}
	if best != nil {
		fq.clock = minPass
	}
	return best
}

// pop removes and returns the next job to admit per the policy, or nil when
// the queue is empty. Popping charges the tenant's pass by its stride; a
// canceled job still in the queue is popped (and charged) like any other —
// the caller detects the lost admission CAS and pays no worker for it.
func (fq *fairQueue) pop() *Job {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.size == 0 {
		return nil
	}
	if fq.fifo {
		j := fq.fifoQ[0]
		fq.fifoQ[0] = nil
		fq.fifoQ = fq.fifoQ[1:]
		fq.size--
		fq.tenants[j.tenant].depth.Add(-1)
		return j
	}
	best := fq.bestLocked()
	if best == nil {
		return nil
	}
	j := heap.Pop(&best.q).(*Job)
	best.pass += best.stride()
	fq.size--
	best.depth.Add(-1)
	return j
}

// remove takes a specific queued job out of the queue, reporting whether it
// was present. It is Suspend's eager dequeue: removing the entry FIRST gives
// the suspender exclusive ownership of it (the dispatcher and stealing
// siblings always pop before their admission CAS), so no stale entry can
// linger behind a state flip. The linear scan is fine — remove runs on the
// suspend control path, never on admission or execution paths. No pass is
// charged: the tenant never received service for the entry.
func (fq *fairQueue) remove(j *Job) bool {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.fifo {
		for i, q := range fq.fifoQ {
			if q != j {
				continue
			}
			copy(fq.fifoQ[i:], fq.fifoQ[i+1:])
			fq.fifoQ[len(fq.fifoQ)-1] = nil
			fq.fifoQ = fq.fifoQ[:len(fq.fifoQ)-1]
			fq.size--
			fq.tenants[j.tenant].depth.Add(-1)
			return true
		}
		return false
	}
	t := fq.tenants[j.tenant]
	if t == nil {
		return false
	}
	for i, q := range t.q {
		if q == j {
			heap.Remove(&t.q, i)
			fq.size--
			t.depth.Add(-1)
			return true
		}
	}
	return false
}

// peek returns the priority and deadline of the job pop would return next,
// without popping or charging (the clock still advances to the current
// class floor, which is idempotent and side-effect-equivalent to the pop
// that follows); ok is false on an empty queue. The fields are copied under
// the queue lock: once the lock drops, a sibling
// shard may steal the job, run it and see it released and recycled.
func (fq *fairQueue) peek() (prio int, deadline time.Time, ok bool) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if fq.size == 0 {
		return 0, time.Time{}, false
	}
	var head *Job
	if fq.fifo {
		head = fq.fifoQ[0]
	} else if best := fq.bestLocked(); best != nil {
		head = best.q[0]
	} else {
		return 0, time.Time{}, false
	}
	return head.prio, head.deadline, true
}

// len returns the number of queued jobs.
func (fq *fairQueue) len() int {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	return fq.size
}

// depthOf returns the named tenant's queued-job count (0 for an unknown
// tenant), without creating an account.
func (fq *fairQueue) depthOf(name string) int64 {
	fq.mu.Lock()
	t := fq.tenants[tenantName(name)]
	fq.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.depth.Load()
}

// shares computes each active tenant's weighted share of p workers into out
// (cleared first; the caller owns and reuses it — the dispatcher calls this
// every pressure round, so the scratch must not be reallocated per call).
// Active tenants are those with queued jobs plus the keys of running (the
// tenants of currently running elastic jobs). Every share is at least 1:
// preemption never asks a tenant to vanish, only to shrink toward its share.
func (fq *fairQueue) shares(p int, running, out map[string]int) {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	clear(out)
	totalW := 0
	consider := func(t *tenant) {
		if _, ok := out[t.name]; ok {
			return
		}
		w := t.weight
		if w < 1 {
			w = 1
		}
		out[t.name] = w
		totalW += w
	}
	for _, t := range fq.order {
		if t.q.Len() > 0 {
			consider(t)
		}
	}
	for name := range running {
		consider(fq.accountLocked(name))
	}
	for name, w := range out {
		share := p * w / totalW
		if share < 1 {
			share = 1
		}
		out[name] = share
	}
}

// tenantsSnapshot builds the per-tenant slice of a Stats snapshot; target is
// the scheduler's normalized SLO deadline-hit objective.
func (fq *fairQueue) tenantsSnapshot(target float64) map[string]TenantStats {
	fq.mu.Lock()
	defer fq.mu.Unlock()
	if len(fq.tenants) == 0 {
		return nil
	}
	out := make(map[string]TenantStats, len(fq.tenants))
	for name, t := range fq.tenants {
		ts := TenantStats{
			Weight:            t.weight,
			QueueDepth:        int(t.depth.Load()),
			Submitted:         t.submitted.Load(),
			Completed:         t.completed.Load(),
			IterationsDone:    t.iters.Load(),
			Preempted:         t.preempted.Load(),
			DeadlineMissed:    t.deadlineMissed.Load(),
			DeadlineJobsTotal: t.deadlineJobs.Load(),
			WaitSumSeconds:    float64(t.waitNanos.Load()) / float64(time.Second),
			RunSumSeconds:     float64(t.runNanos.Load()) / float64(time.Second),
		}
		ts.sloWait, ts.sloRun, ts.sloHits, ts.sloMisses = t.slo.snapshot()
		ts.SLO = buildTenantSLO(target, ts.sloWait, ts.sloRun, ts.sloHits, ts.sloMisses)
		out[name] = ts
	}
	return out
}
