package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/bench"
	"loopsched/internal/jobs"
	"loopsched/internal/loadgen"
)

// outcome is one request as the generator saw it. Latency runs from due to
// done; for the closed loop a request is due when it is sent.
type outcome struct {
	due, send, done time.Time
	// picked is when a free connection took the request: after due when
	// every connection was busy.
	picked time.Time
	sent   bool
	// fail is the reason the request failed (empty on success); wrong marks
	// a failure of an output check rather than a refusal or transport error.
	fail  string
	wrong bool
	// wall is the response's wall_seconds: the handler's submit-to-join
	// time for the request's jobs. handlerID names its handler span.
	wall      float64
	handlerID int64
}

func (o outcome) latencyUs() float64 { return us(o.done.Sub(o.due)) }

// lateUs is how late the generator itself sent the request: send time
// minus the later of due time and the moment a connection was free. Time
// spent waiting for a busy connection is the system's, not the generator's.
func (o outcome) lateUs() float64 {
	from := o.due
	if o.picked.After(from) {
		from = o.picked
	}
	return us(o.send.Sub(from))
}

// generatorLate returns the sent requests' generator lateness (µs).
func generatorLate(outs []outcome) []float64 {
	var late []float64
	for _, o := range outs {
		if o.sent {
			late = append(late, o.lateUs())
		}
	}
	return late
}

// checkFunc classifies a response: fail is empty when it is good.
type checkFunc func(c call) (fail string, wrong bool)

// send issues one request due at due and, on traced runs, records the
// request's spans: request (due to done) containing loadgen.wait (due to
// send) and http.roundtrip (send to done), which contains the handler span
// the server-side wrapper records.
func (d *daemon) send(path, form string, due time.Time, rec *recorder, check checkFunc) outcome {
	var op, rt int64
	if rec != nil {
		op, rt = rec.newID(), rec.newID()
	}
	send := time.Now()
	c := d.post(path, form, rec, op, rt)
	done := time.Now()
	o := outcome{due: due, picked: due, send: send, done: done, sent: true, wall: c.body.WallSeconds, handlerID: c.handlerID}
	o.fail, o.wrong = check(c)
	if rec != nil {
		rec.add(op, 0, op, "request", due, done)
		if send.After(due) {
			rec.add(rec.newID(), op, op, "loadgen.wait", due, send)
		}
		rec.add(rt, op, op, "http.roundtrip", send, done)
	}
	return o
}

// classify applies the checks every /run response shares; good reports
// whether the body may be checked further.
func classify(c call) (fail string, wrong, good bool) {
	switch {
	case c.err != nil && c.status == 0:
		return "transport: " + c.err.Error(), false, false
	case c.status == http.StatusTooManyRequests || c.status == http.StatusServiceUnavailable:
		return "shed: status " + strconv.Itoa(c.status), false, false
	case c.status != http.StatusOK:
		return "status " + strconv.Itoa(c.status), true, false
	case c.err != nil:
		return c.err.Error(), true, false
	}
	return "", false, true
}

// checkJobs checks one group of job results against an expectation.
func checkJobs(res []jobResult, e stage) (fail string, wrong bool) {
	if len(res) != e.width {
		return fmt.Sprintf("%s: %d results for %d jobs", e.workload, len(res), e.width), true
	}
	for _, r := range res {
		if r.Error != "" {
			return e.workload + ": job error: " + r.Error, false
		}
		if !e.check {
			continue
		}
		if diff := math.Abs(r.Result - e.want); !(diff <= e.tol*math.Abs(e.want)) {
			return fmt.Sprintf("%s n=%d: result %v, want %v", e.workload, e.n, r.Result, e.want), true
		}
	}
	return "", false
}

// request is what pick returns for the i-th request of a closed loop.
type request struct {
	path, form string
	check      checkFunc
}

// floorRequest is every serve-floor request.
func floorRequest(int) request { return request{path: floorPath, check: checkFloor} }

// closedLoop runs maxConns clients, each sending its next request when the
// previous one completes, until span has passed or, when count > 0, count
// requests have been sent. The i-th request sent is pick(i).
func (d *daemon) closedLoop(span time.Duration, count int, rec *recorder, pick func(i int) request) []outcome {
	stopAt := time.Now().Add(span)
	var next atomic.Int64
	outs := make([][]outcome, maxConns)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (count > 0 && i >= count) || (count == 0 && !time.Now().Before(stopAt)) {
					return
				}
				r := pick(i)
				outs[c] = append(outs[c], d.send(r.path, r.form, time.Now(), rec, r.check))
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// tally adds a phase's requests to the report's counts and returns the
// latencies (µs) of the requests sent and the number that succeeded.
func tally(rep *report, outs []outcome) (lat []float64, ok int) {
	lat = make([]float64, 0, len(outs))
	for _, o := range outs {
		rep.attempted++
		if !o.sent {
			rep.failed++
			continue
		}
		lat = append(lat, o.latencyUs())
		if o.fail == "" {
			ok++
			continue
		}
		rep.failed++
		if o.wrong {
			rep.wrong("%s", o.fail)
		}
	}
	return lat, ok
}

// attachRuns adds a jobs.run span inside each traced request's handler
// span: the response's wall_seconds, ending where the handler ended. The
// handler measures it from its first submit to its last join.
func attachRuns(rec *recorder, spans []span, outs []outcome) []span {
	handlers := make(map[int64]span)
	for _, s := range spans {
		if s.Name == "loopd.handler" {
			handlers[s.ID] = s
		}
	}
	for _, o := range outs {
		h, ok := handlers[o.handlerID]
		if !ok || o.wall <= 0 {
			continue
		}
		w := int64(o.wall * 1e9)
		spans = append(spans, span{ID: rec.newID(), Parent: h.ID, Op: h.Op, Name: "jobs.run", Start: h.End - w, End: h.End})
	}
	return spans
}

// --- serve-floor -----------------------------------------------------------

const (
	floorN    = 4096
	floorPath = "/run?workload=sum&n=4096"
	// floorWarmup requests take the daemon past its 1024-entry finished-
	// trace ring and its job freelists, and let the heap reach its steady
	// size, before anything is timed.
	floorWarmup = 20000
	// burdenJobs empty jobs are timed after each one-second traffic window.
	burdenJobs = 500
	window     = time.Second
)

func checkFloor(c call) (string, bool) {
	fail, wrong, good := classify(c)
	if !good {
		return fail, wrong
	}
	return checkJobs(c.body.Results, stage{workload: "sum", n: floorN, width: 1, want: floorN * (floorN - 1) / 2, check: true})
}

func setupFloor() (*daemon, error) {
	d, err := startDaemon()
	if err != nil {
		return nil, err
	}
	for _, o := range d.closedLoop(0, floorWarmup, nil, floorRequest) {
		if o.fail != "" {
			d.close()
			return nil, fmt.Errorf("warm-up request failed: %s", o.fail)
		}
	}
	if _, err := jobBurden(d.srv.Runtime(), 2000, nil); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func runServeFloor(o opts, rep *report) error {
	d, setupS, err := timedSetup(3, setupFloor, (*daemon).close)
	if err != nil {
		return err
	}
	defer d.close()
	rep.extra["op"] = "POST " + floorPath + ", closed loop over 2 connections"
	traffic := func(span time.Duration, rec *recorder) []outcome {
		return d.closedLoop(span, 0, rec, floorRequest)
	}
	if o.trace {
		return traceServe(o, rep, d, traffic)
	}

	peak := startHeapSampler(true)
	var cl closedRun
	if err := cl.run(d, o.seconds, floorRequest, rep); err != nil {
		return err
	}
	cl.report(rep, setupS, peak.finish())
	rep.extra["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	return nil
}

// closedRun is a closed-loop measurement: one-second traffic windows, each
// followed by a block of empty jobs timed for burden_ns.
type closedRun struct {
	windows windowed
	blocks  []float64
	ok      int
	busy    time.Duration
}

// run drives pick's requests for span, tallying them into rep.
func (cl *closedRun) run(d *daemon, span time.Duration, pick func(int) request, rep *report) error {
	buf := make([]float64, 0, burdenJobs)
	for deadline := time.Now().Add(span); time.Now().Before(deadline); {
		t0 := time.Now()
		outs := d.closedLoop(window, 0, nil, pick)
		cl.busy += time.Since(t0)
		lat, n := tally(rep, outs)
		cl.windows.add(lat)
		cl.ok += n
		b, err := jobBurden(d.srv.Runtime(), burdenJobs, buf)
		if err != nil {
			return err
		}
		cl.blocks = append(cl.blocks, b)
	}
	return nil
}

// report sets the end-to-end metrics of a serve workload from its closed
// loop.
func (cl *closedRun) report(rep *report, setupS, heap float64) {
	sum := cl.windows.result()
	rep.set("setup_s", "s", setupS)
	rep.set("burden_ns", "ns", median(cl.blocks))
	rep.set("latency_p50_us", "us", sum.P50)
	rep.set("latency_p90_us", "us", sum.P90)
	rep.set("live_heap_mb", "MiB", heap)
	rep.extra["latency_p99_us"] = sum.Tail
	rep.extra["throughput_ops_s"] = float64(cl.ok) / cl.busy.Seconds()
	rep.extra["samples"] = map[string]any{"requests": sum.N, "windows": len(cl.windows.sums), "tail_level": sum.TailLevel, "burden_jobs": len(cl.blocks) * burdenJobs}
}

// --- serve-mixed -----------------------------------------------------------

const (
	// mixedOps is the length of the synthesized request stream; a phase
	// longer than the stream walks it again from the start.
	mixedOps = 16384
	// mixedMinN..mixedMaxN bound job sizes so kernel time, not HTTP,
	// dominates a request.
	mixedMinN = 4096
	mixedMaxN = 32768
	// spinIterNs is the per-iteration cost of the calibrated spin
	// workloads. At the daemon's default of 100ns a spin job costs ~10x a
	// kernel job of the same size, and the few large spin fan-outs in a
	// stream set its mean cost and its p99 alone, so both swung with the
	// seed; at 20ns spin and kernel jobs cost about the same per iteration.
	spinIterNs = 20
	// kernelTol is the relative tolerance of kernel results against the
	// set-up-time single-job evaluation: the runtime folds commutative
	// reductions in arrival order, which reorders float additions.
	kernelTol = 1e-9
	// capStep is the factor between successive rates of the capacity
	// search; capSpan is how long each rate is offered.
	capStep = 1.15
	capSpan = 1500 * time.Millisecond
	// grace is how long past a phase's end due requests may still be sent;
	// the rest count as failed (a backlog the generator could not send).
	grace = 500 * time.Millisecond
)

// The fixed open-loop rates (requests/s) and the p99 latency limit of
// serve-mixed. BENCHMARK.json records the same values in the workload's
// description.
var (
	mixedRates     = [3]float64{600, 2000, 3000}
	mixedRateNames = [3]string{"low", "mid", "high"}
	latencyLimitUs = 50000.0
)

// stage is the expected outcome of one group of identical jobs.
type stage struct {
	workload string
	n, width int
	want     float64
	tol      float64
	check    bool
}

// mixedOp is one synthesized request with its expected results.
type mixedOp struct {
	form   string
	stages []stage
	// pipeline marks a response whose results come per stage.
	pipeline bool
}

func (m *mixedOp) checkResp(c call) (string, bool) {
	fail, wrong, good := classify(c)
	if !good {
		return fail, wrong
	}
	if !m.pipeline {
		return checkJobs(c.body.Results, m.stages[0])
	}
	if len(c.body.Pipeline) != len(m.stages) {
		return fmt.Sprintf("pipeline: %d stages, want %d", len(c.body.Pipeline), len(m.stages)), true
	}
	for i, st := range m.stages {
		if fail, wrong := checkJobs(c.body.Pipeline[i].Results, st); fail != "" {
			return fail, wrong
		}
	}
	return "", false
}

// expect fills in what one job of e.workload over e.n iterations must
// return: the closed form for the sum family, a single-job sequential
// evaluation for the kernels, and nothing for the result-less spins.
func expect(e *stage) error {
	switch e.workload {
	case "sum":
		e.want, e.check = float64(e.n)*float64(e.n-1)/2, true
	case "spinsum":
		e.want, e.check = float64(e.n), true
	default:
		req, err := bench.NewJobRequest(e.workload, bench.JobParams{N: e.n})
		if err != nil {
			return err
		}
		if req.RBody != nil {
			e.want, e.tol, e.check = req.RBody(0, 0, e.n, req.Identity), kernelTol, true
		}
	}
	return nil
}

// parseStages returns the job groups of one synthesized op, without their
// expected results.
func parseStages(op *loadgen.Op) ([]stage, error) {
	if op.Pipeline == "" {
		return []stage{{workload: op.Workload, n: op.N, width: max(1, op.Jobs)}}, nil
	}
	var out []stage
	for _, spec := range strings.Split(op.Pipeline, ",") {
		f := strings.Split(spec, ":")
		if len(f) < 2 {
			return nil, fmt.Errorf("pipeline stage %q has no size", spec)
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("pipeline stage %q: %w", spec, err)
		}
		width := 1
		if len(f) > 2 {
			if width, err = strconv.Atoi(f[2]); err != nil {
				return nil, fmt.Errorf("pipeline stage %q: %w", spec, err)
			}
		}
		out = append(out, stage{workload: f[0], n: n, width: width})
	}
	return out, nil
}

// buildMixed synthesizes the request stream for seed and computes every
// request's expected results, evaluating each distinct kernel job once,
// on all cores.
func buildMixed(seed int64) ([]mixedOp, error) {
	tr, err := loadgen.Synthesize(loadgen.SynthConfig{
		Seed:    seed,
		Profile: "mixed",
		Ops:     mixedOps,
		Sizes:   loadgen.SizeDist{Min: mixedMinN, Max: mixedMaxN, Alpha: 1.3},
	})
	if err != nil {
		return nil, fmt.Errorf("synthesizing traffic: %w", err)
	}
	type key struct {
		w string
		n int
	}
	uniq := map[key]*stage{}
	var todo []*stage
	ops := make([]mixedOp, len(tr.Ops))
	for i := range tr.Ops {
		op := &tr.Ops[i]
		stages, err := parseStages(op)
		if err != nil {
			return nil, err
		}
		form := op.FormValues()
		form.Set("iterns", strconv.Itoa(spinIterNs))
		ops[i] = mixedOp{form: form.Encode(), pipeline: op.Pipeline != "", stages: stages}
		for _, st := range stages {
			k := key{st.workload, st.n}
			if uniq[k] == nil {
				e := &stage{workload: st.workload, n: st.n}
				uniq[k] = e
				todo = append(todo, e)
			}
		}
	}
	var next atomic.Int64
	errs := make([]error, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				if err := expect(todo[i]); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for i := range ops {
		for j := range ops[i].stages {
			st := &ops[i].stages[j]
			e := uniq[key{st.workload, st.n}]
			st.want, st.tol, st.check = e.want, e.tol, e.check
		}
	}
	return ops, nil
}

// mixedEnv is the serve-mixed set-up.
type mixedEnv struct {
	d   *daemon
	ops []mixedOp
	rng *rand.Rand
}

func setupMixed(seed int64) func() (*mixedEnv, error) {
	return func() (*mixedEnv, error) {
		ops, err := buildMixed(seed)
		if err != nil {
			return nil, err
		}
		d, err := setupFloor()
		if err != nil {
			return nil, err
		}
		e := &mixedEnv{d: d, ops: ops, rng: rand.New(rand.NewSource(seed))}
		// Warm the served kernels' shared inputs and the spin calibration
		// with one closed-loop pass over a slice of the stream.
		for i := 0; i < 256; i++ {
			op := &e.ops[i]
			if o := d.send("/run", op.form, time.Now(), nil, op.checkResp); o.fail != "" {
				d.close()
				return nil, fmt.Errorf("warm-up request failed: %s", o.fail)
			}
		}
		return e, nil
	}
}

// phase is one open-loop run at a fixed rate. outs is dropped once the
// phase is recorded, so the run does not retain every request.
type phase struct {
	rate    float64
	n       int
	p50     float64
	p99     float64
	late    float64
	failed  int
	backlog int
	outs    []outcome
}

// openLoop offers the stream at rate for span on a seeded Poisson schedule.
// Every phase starts at the head of the stream, so phases at different
// rates serve the same requests and differ only in how fast they arrive.
// maxConns senders each take the next due request when free, sleep until it
// is due and send it; a request is timed from its due time, so time spent
// waiting for a free connection counts against the system.
func (e *mixedEnv) openLoop(rate float64, span time.Duration, rec *recorder) phase {
	due := poissonSchedule(e.rng, rate, span)
	outs := make([]outcome, len(due))
	start := time.Now().Add(time.Millisecond)
	cutoff := start.Add(span + grace)
	var idx atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				if time.Now().After(cutoff) {
					outs[i] = outcome{due: at, fail: "not sent: generator backlog"}
					continue
				}
				picked := time.Now()
				sleepUntil(at)
				op := &e.ops[i%len(e.ops)]
				outs[i] = e.d.send("/run", op.form, at, rec, op.checkResp)
				outs[i].picked = picked
			}
		}()
	}
	wg.Wait()
	return measurePhase(rate, start, span, outs)
}

// measurePhase summarizes a phase. Failed and unsent requests count as
// missing the latency limit (+Inf) in its tail percentile.
func measurePhase(rate float64, start time.Time, span time.Duration, outs []outcome) phase {
	p := phase{rate: rate, n: len(outs), outs: outs}
	end := start.Add(span)
	lat := make([]float64, 0, len(outs))
	for _, o := range outs {
		if !o.sent || o.fail != "" {
			p.failed++
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, o.latencyUs())
		}
		if !o.due.After(end) && (!o.sent || o.send.After(end)) {
			p.backlog++
		}
	}
	s := summarize(lat)
	p.p50, p.p99 = s.P50, s.Tail
	if late := generatorLate(outs); len(late) > 0 {
		p.late = summarize(late).Tail
	}
	return p
}

// meets reports whether a phase stays within the latency limit with at
// most 1% failures and without a growing backlog: the requests still unsent
// when the phase ends must be fewer than arrive within one latency limit,
// or the next request would already be due a full limit ago.
func (p phase) meets() bool {
	n := p.n
	return n > 0 && p.p99 <= latencyLimitUs && float64(p.failed) <= 0.01*float64(n) &&
		float64(p.backlog) <= p.rate*latencyLimitUs/1e6
}

// searchCapacity finds the highest rate that meets the limit, starting
// from the fixed phases: it raises the rate by capStep until a phase misses
// the limit, then bisects the bracket (geometrically) with the steps left,
// handing each phase to record. The capacity is interpolated, in log
// p99, between the bracket's ends; found is false when no phase missed the
// limit, and the rate returned is then only a lower bound.
func (e *mixedEnv) searchCapacity(fixed []phase, steps int, record func(phase) (phase, error)) (capRate float64, found bool, err error) {
	var pass, fail phase
	hasPass, hasFail := false, false
	for _, p := range fixed {
		if hasFail {
			break
		}
		if p.meets() {
			pass, hasPass = p, true
		} else {
			fail, hasFail = p, true
		}
	}
	run := func(rate float64) error {
		p, err := record(e.openLoop(rate, capSpan, nil))
		if p.meets() {
			pass, hasPass = p, true
		} else {
			fail, hasFail = p, true
		}
		return err
	}
	for rate := fixed[len(fixed)-1].rate; steps > 0 && !hasFail; steps-- {
		rate *= capStep
		if err := run(rate); err != nil {
			return 0, false, err
		}
	}
	for ; steps > 0 && hasPass && hasFail; steps-- {
		if err := run(math.Sqrt(pass.rate * fail.rate)); err != nil {
			return 0, false, err
		}
	}
	switch {
	case !hasPass:
		return 0, true, nil
	case !hasFail:
		return pass.rate, false, nil
	case math.IsInf(fail.p99, 1) || fail.p99 <= latencyLimitUs:
		// Missed on failures or backlog, not on latency: nothing to
		// interpolate.
		return pass.rate, true, nil
	}
	frac := (math.Log(latencyLimitUs) - math.Log(pass.p99)) / (math.Log(fail.p99) - math.Log(pass.p99))
	return pass.rate + frac*(fail.rate-pass.rate), true, nil
}

func runServeMixed(o opts, rep *report) error {
	e, setupS, err := timedSetup(3, setupMixed(o.seed), func(e *mixedEnv) { e.d.close() })
	if err != nil {
		return err
	}
	defer e.d.close()
	rep.extra["op"] = "POST /run with synthesized mixed traffic over 2 connections: open loop at fixed rates, then closed loop"
	rep.extra["rates_rps"] = map[string]float64{"low": mixedRates[0], "mid": mixedRates[1], "high": mixedRates[2]}
	rep.extra["latency_limit_us"] = latencyLimitUs
	rep.extra["job_sizes"] = [2]int{mixedMinN, mixedMaxN}
	if o.trace {
		traffic := func(span time.Duration, rec *recorder) []outcome {
			return e.openLoop(mixedRates[1], span, rec).outs
		}
		return traceServe(o, rep, e.d, traffic)
	}

	peak := startHeapSampler(true)
	var ladder []map[string]any
	lateP99 := 0.0
	// record tallies a finished open-loop phase into the report, logs it and
	// drops its requests.
	record := func(p phase) (phase, error) {
		tally(rep, p.outs)
		ladder = append(ladder, map[string]any{"rate": p.rate, "p50_us": finite(p.p50), "p99_us": finite(p.p99),
			"failed": p.failed, "backlog": p.backlog, "late_us_p99": p.late})
		lateP99 = max(lateP99, p.late)
		p.outs = nil
		return p, nil
	}
	// Shares of the run: the fixed rates 10%, 15% and 10%, the capacity
	// search 20%, and the closed loop whose figures are gated 45%.
	spans := [3]time.Duration{o.seconds * 10 / 100, o.seconds * 15 / 100, o.seconds * 10 / 100}
	var fixed []phase
	for i, r := range mixedRates {
		p, _ := record(e.openLoop(r, spans[i], nil))
		rep.extra["latency_p99_us."+mixedRateNames[i]] = finite(p.p99)
		rep.extra["latency_p50_us."+mixedRateNames[i]] = finite(p.p50)
		fixed = append(fixed, p)
	}
	capRate, found, err := e.searchCapacity(fixed, int(o.seconds*20/100/capSpan), record)
	if err != nil {
		return err
	}
	var cl closedRun
	err = cl.run(e.d, o.seconds*45/100, func(i int) request {
		op := &e.ops[i%len(e.ops)]
		return request{path: "/run", form: op.form, check: op.checkResp}
	}, rep)
	if err != nil {
		return err
	}
	cl.report(rep, setupS, peak.finish())
	rep.extra["capacity_rps"] = capRate
	rep.extra["capacity_found"] = found
	rep.extra["phases"] = ladder
	rep.extra["error_rate"] = float64(rep.failed) / float64(rep.attempted)
	rep.extra["loadgen.late_us_p99"] = lateP99
	return nil
}

// finite returns x, or nil (JSON null) for an infinite tail: a phase
// with more than 1% failed requests has no finite p99.
func finite(x float64) any {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return nil
	}
	return x
}

// latencies returns the latencies (µs) of a phase's sent requests, in due
// order, without touching the report.
func latencies(outs []outcome) []float64 {
	lat := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.sent {
			lat = append(lat, o.latencyUs())
		}
	}
	return lat
}

// --- traced serve runs -------------------------------------------------------

// traceServe is the traced run of a serve workload: an untraced phase, a
// phase of the same length with spans, then the layer probes.
func traceServe(o opts, rep *report, d *daemon, traffic func(time.Duration, *recorder) []outcome) error {
	span := tracedSpan(o)
	plain := traffic(span, nil)
	plainSum := summarize(latencies(plain))
	tally(rep, plain)

	rec := newRecorder()
	rt := d.srv.Runtime()
	before, st0 := readRT(), rt.Stats().Total
	d.rec.Store(rec)
	traced := traffic(span, rec)
	d.rec.Store(nil)
	after, st1 := readRT(), rt.Stats().Total
	spans := attachRuns(rec, rec.take(), traced)
	tracedSum := summarize(latencies(traced))
	tally(rep, traced)

	self, _, ops := selfByName(spans)
	setRequestLayers(rep, requestLayers{ops: ops, self: self, late: generatorLate(traced), before: st0, after: st1})
	rep.set("bench.unattributed_us", "us", perOpUs(self["request"], ops))
	rep.set("bench.trace_overhead", "x", tracedSum.P50/plainSum.P50)
	setGoRuntime(rep, before, after, ops)

	env, err := setupMPDATA()
	if err != nil {
		return err
	}
	mpdataLayers(env, 2*time.Second, newRecorder(), rep)
	env.pool.Close()
	if err := layerProbes(rep, rt.P()); err != nil {
		return err
	}
	return finishSpans(o, rep, spans)
}

// requestLayers is what a traced phase of requests tells about the layers
// below the generator.
type requestLayers struct {
	ops           int
	self          map[string]int64
	late          []float64
	before, after jobs.Stats
}

func perOpUs(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / float64(ops) / 1e3
}

// setRequestLayers sets the per-layer metrics of the request path. With no
// requests (ops == 0) every one of them is zero: the layers did no work.
func setRequestLayers(rep *report, l requestLayers) {
	rep.set("loopd.handler_us", "us", perOpUs(l.self["loopd.handler"], l.ops))
	rep.set("http.self_us", "us", perOpUs(l.self["http.roundtrip"], l.ops))
	rep.set("jobs.run_us", "us", perOpUs(l.self["jobs.run"], l.ops))
	late := 0.0
	if len(l.late) > 0 {
		late = summarize(l.late).Tail
	}
	rep.set("loadgen.late_us_p99", "us", late)

	var waitSum float64
	var done int64
	for name, t := range l.after.Tenants {
		t0 := l.before.Tenants[name]
		waitSum += t.WaitSumSeconds - t0.WaitSumSeconds
		done += t.Completed - t0.Completed
	}
	qw := 0.0
	if done > 0 {
		qw = waitSum / float64(done) * 1e6
	}
	rep.set("jobs.queue_wait_us", "us", qw)

	per1k := func(a, b int64) float64 {
		if l.ops == 0 {
			return 0
		}
		return float64(b-a) / float64(l.ops) * 1000
	}
	a, b := l.before, l.after
	rep.set("jobs.grown", "1/1000req", per1k(a.Grown, b.Grown))
	rep.set("jobs.peeled", "1/1000req", per1k(a.Peeled, b.Peeled))
	rep.set("jobs.preempted", "1/1000req", per1k(a.Preempted, b.Preempted))
	rep.set("jobs.stolen", "1/1000req", per1k(a.Stolen, b.Stolen))
	rep.set("jobs.lent", "1/1000req", per1k(a.Lent, b.Lent))
	rep.set("jobs.deadline_missed", "1/1000req", per1k(a.DeadlineMissed, b.DeadlineMissed))
	rep.set("jobs.shed", "1/1000req", per1k(a.ShedTotal, b.ShedTotal))
}
