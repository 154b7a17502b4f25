package main

import (
	"fmt"
	"math"
	"time"

	"loopsched"
	"loopsched/internal/grid"
	"loopsched/internal/mpdata"
	"loopsched/internal/sched"
)

const (
	// episodeSteps is the number of MPDATA steps between output checks:
	// every episode restarts from the initial field, so its final field can
	// be compared with one sequential reference computed at set-up.
	episodeSteps = 100
	// windowSteps is the number of consecutive steps (about a second's
	// worth) summarized together before taking medians across windows.
	windowSteps = 5000
	// burdenBlock is the number of empty loops timed after each episode.
	burdenBlock = 2000
	// massTol is the relative mass drift an episode may show: MPDATA
	// conserves mass exactly up to round-off in the point-loop sums.
	massTol = 1e-11
)

// mpdataEnv is the paper-mpdata set-up: the paper grid, the initial solver
// state, the sequential reference result and the default Pool under test.
type mpdataEnv struct {
	pool  *loopsched.Pool
	base  *mpdata.Solver
	ref   []float64
	mass0 float64
}

func setupMPDATA() (*mpdataEnv, error) {
	g, err := grid.NewPaperGrid()
	if err != nil {
		return nil, fmt.Errorf("building paper grid: %w", err)
	}
	base, err := mpdata.New(g, mpdata.Config{Corrective: 1})
	if err != nil {
		return nil, fmt.Errorf("building solver: %w", err)
	}
	seq := sched.NewSequential()
	ref := base.Clone()
	ref.Run(seq, episodeSteps)
	e := &mpdataEnv{base: base, ref: ref.Psi, mass0: base.Mass(seq)}
	e.pool = loopsched.New(loopsched.Config{})
	// Warm-up: one checked episode and one burden block bring the worker
	// threads up and the grid into cache before anything is timed.
	s := base.Clone()
	e.episode(s, e.pool.Scheduler(), nil)
	if err := e.check(s); err != nil {
		e.pool.Close()
		return nil, fmt.Errorf("warm-up episode: %w", err)
	}
	emptyLoops(e.pool, burdenBlock, nil)
	return e, nil
}

// restart resets s, a clone of the initial solver, to the initial field.
// Every other array a step reads is fully written earlier in the same step,
// so the reset solver computes what a fresh clone would (the bit-exact check
// after every episode holds it to that) without the clone's garbage.
func (e *mpdataEnv) restart(s *mpdata.Solver) { copy(s.Psi, e.base.Psi) }

// episode runs episodeSteps steps of s from the initial state under run,
// appending each step's duration (µs) to lat when lat is non-nil.
func (e *mpdataEnv) episode(s *mpdata.Solver, run sched.Scheduler, lat *[]float64) time.Duration {
	e.restart(s)
	t0 := time.Now()
	prev := t0
	for k := 0; k < episodeSteps; k++ {
		s.Step(run)
		now := time.Now()
		if lat != nil {
			*lat = append(*lat, us(now.Sub(prev)))
		}
		prev = now
	}
	return prev.Sub(t0)
}

// check compares an episode's final field with the sequential reference bit
// for bit and checks mass conservation.
func (e *mpdataEnv) check(s *mpdata.Solver) error {
	for i, want := range e.ref {
		if math.Float64bits(s.Psi[i]) != math.Float64bits(want) {
			return fmt.Errorf("field differs from the sequential reference at point %d: %v != %v", i, s.Psi[i], want)
		}
	}
	m := s.Mass(sched.NewSequential())
	if rel := math.Abs(m-e.mass0) / math.Abs(e.mass0); !(rel <= massTol) {
		return fmt.Errorf("mass drifted by %.3g (limit %.0g)", rel, massTol)
	}
	return nil
}

// emptyLoops times n empty P-iteration loops on the pool, one by one — the
// paper's burden d measured directly — and returns their median in ns.
// Durations are written into buf when it is large enough.
func emptyLoops(p *loopsched.Pool, n int, buf []float64) float64 {
	P := p.Workers()
	body := func(w, lo, hi int) {}
	buf = buf[:0]
	for i := 0; i < n; i++ {
		t := time.Now()
		p.For(P, body)
		buf = append(buf, float64(time.Since(t)))
	}
	return median(buf)
}

func runPaperMPDATA(o opts, rep *report) error {
	env, setupS, err := timedSetup(5, setupMPDATA, func(e *mpdataEnv) { e.pool.Close() })
	if err != nil {
		return err
	}
	defer env.pool.Close()
	rep.extra["grid"] = map[string]int{"points": env.base.Grid().NumPoints, "edges": env.base.Grid().NumEdges()}
	rep.extra["workers"] = env.pool.Workers()
	if o.trace {
		return traceMPDATA(o, rep, env)
	}

	lat := make([]float64, 0, windowSteps+episodeSteps)
	var windows windowed
	blocks := make([]float64, 0, 4096)
	buf := make([]float64, 0, burdenBlock)
	s := env.base.Clone()
	var wall time.Duration
	steps := 0
	// The live heap is sampled between episodes, not by a background
	// goroutine whose wake-ups would land inside timed steps.
	peak := startHeapSampler(false)
	for deadline := time.Now().Add(o.seconds); time.Now().Before(deadline); {
		d := env.episode(s, env.pool.Scheduler(), &lat)
		if len(lat) >= windowSteps {
			windows.add(lat)
			lat = lat[:0]
		}
		wall += d
		steps += episodeSteps
		rep.attempted += episodeSteps
		if err := env.check(s); err != nil {
			rep.failed += episodeSteps
			rep.wrong("mpdata episode: %v", err)
		}
		blocks = append(blocks, emptyLoops(env.pool, burdenBlock, buf))
		peak.sample()
	}
	heap := peak.finish()

	if len(lat) >= windowSteps/2 {
		windows.add(lat)
	}
	sum := windows.result()
	rep.set("setup_s", "s", setupS)
	rep.set("burden_ns", "ns", median(blocks))
	rep.set("latency_p50_us", "us", sum.P50)
	rep.set("latency_p90_us", "us", sum.P90)
	rep.set("live_heap_mb", "MiB", heap)
	rep.extra["latency_p99_us"] = sum.Tail
	rep.extra["throughput_ops_s"] = float64(steps) / wall.Seconds()
	rep.extra["op"] = "one MPDATA time step"
	rep.extra["samples"] = map[string]any{"steps": sum.N, "windows": len(windows.sums), "tail_level": sum.TailLevel, "burden_loops": len(blocks) * burdenBlock}
	return nil
}

// spanSched wraps the scheduler an MPDATA step runs on and records one span
// per loop, as a child of the step's span (whose id is the op's id).
type spanSched struct {
	sched.Scheduler
	rec *recorder
	op  int64
	// loopNs, when non-nil, collects loop durations instead of spans.
	loopNs *[]float64
}

func (s *spanSched) timed(start time.Time) {
	end := time.Now()
	if s.loopNs != nil {
		*s.loopNs = append(*s.loopNs, float64(end.Sub(start)))
		return
	}
	s.rec.add(s.rec.newID(), s.op, s.op, "core.loop", start, end)
}

func (s *spanSched) For(n int, body sched.Body) {
	t := time.Now()
	s.Scheduler.For(n, body)
	s.timed(t)
}

func (s *spanSched) ForReduce(n int, identity float64, combine func(a, b float64) float64, body sched.ReduceBody) float64 {
	t := time.Now()
	v := s.Scheduler.ForReduce(n, identity, combine, body)
	s.timed(t)
	return v
}

func (s *spanSched) ForReduceVec(n, width int, body sched.VecBody) []float64 {
	t := time.Now()
	v := s.Scheduler.ForReduceVec(n, width, body)
	s.timed(t)
	return v
}

// mpdataLayers measures the core and mpdata layers for d: half untraced,
// half with a span per step and per loop, plus sequential episodes for the
// loops' sequential time. It sets the core.* and mpdata.* metrics and
// returns the step spans and both step medians.
func mpdataLayers(env *mpdataEnv, d time.Duration, rec *recorder, rep *report) (spans []span, untracedP50, tracedP50 float64) {
	P := env.pool.Workers()
	var plain, seqSteps, seqLoops []float64
	seqRun := &spanSched{Scheduler: sched.NewSequential(), loopNs: &seqLoops}
	s := env.base.Clone()
	for deadline := time.Now().Add(d / 2); time.Now().Before(deadline); {
		env.episode(s, env.pool.Scheduler(), &plain)
		if err := env.check(s); err != nil {
			rep.wrong("mpdata episode: %v", err)
		}
		// Every fourth episode also runs sequentially, for the sequential
		// step time and the per-loop sequential time.
		if len(plain)%(4*episodeSteps) == 0 {
			env.episode(s, sched.NewSequential(), &seqSteps)
			env.episode(s, seqRun, nil)
		}
	}

	rec.take()
	var traced []float64
	steps := 0
	for deadline := time.Now().Add(d / 2); time.Now().Before(deadline); {
		env.restart(s)
		for k := 0; k < episodeSteps; k++ {
			op := rec.newID()
			run := &spanSched{Scheduler: env.pool.Scheduler(), rec: rec, op: op}
			t0 := time.Now()
			s.Step(run)
			t1 := time.Now()
			rec.add(op, 0, op, "mpdata.step", t0, t1)
			traced = append(traced, us(t1.Sub(t0)))
		}
		steps += episodeSteps
		if err := env.check(s); err != nil {
			rep.wrong("traced mpdata episode: %v", err)
		}
	}
	spans = rec.take()

	self, count, _ := selfByName(spans)
	loopUs := float64(self["core.loop"]) / float64(count["core.loop"]) / 1e3
	seqLoopUs := mean(seqLoops) / 1e3
	untracedP50, tracedP50 = median(plain), median(traced)
	rep.set("core.loop_us", "us", loopUs)
	rep.set("core.loop_overhead_us", "us", loopUs-seqLoopUs/float64(P))
	rep.set("mpdata.seq_step_us", "us", median(seqSteps))
	rep.set("mpdata.speedup", "x", median(seqSteps)/untracedP50)
	rep.set("mpdata.bytes_per_step", "B", bytesPerStep(env.base.Grid()))
	return spans, untracedP50, tracedP50
}

// bytesPerStep is the memory traffic of one step computed from array sizes:
// every array element each loop reads or writes, counted once per access,
// with no cache reuse. It is a computed figure, not a measurement.
func bytesPerStep(g *grid.Grid) float64 {
	E, P := float64(g.NumEdges()), float64(g.NumPoints)
	inc := float64(len(g.IncidentEdges))
	const f64, i32 = 8, 4
	// Edge loop of a pass: velocity, both endpoints, one gathered field
	// value, one flux written.
	edge := E * (f64 + 2*i32 + f64 + f64)
	// Point loop of a pass: CSR offsets; per incident edge its index, flux
	// and EdgeFrom; per point the old value, area and new value.
	point := (P+1)*i32 + inc*(i32+f64+i32) + P*(3*f64)
	// Antidiffusive-velocity edge loop: both endpoints, velocity, two
	// gathered field values, one velocity written.
	anti := E * (2*i32 + f64 + 2*f64 + f64)
	return 2*(edge+point) + anti
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// traceMPDATA is the traced paper-mpdata run.
func traceMPDATA(o opts, rep *report, env *mpdataEnv) error {
	rec := newRecorder()
	before := readRT()
	spans, plainP50, tracedP50 := mpdataLayers(env, 2*tracedSpan(o), rec, rep)
	after := readRT()
	self, _, ops := selfByName(spans)
	rep.attempted += int64(ops)
	rep.set("bench.unattributed_us", "us", float64(self["mpdata.step"])/float64(ops)/1e3)
	rep.set("bench.trace_overhead", "x", tracedP50/plainP50)
	setGoRuntime(rep, before, after, ops)
	// No requests reach loopd, jobs or net/http on this workload: their
	// per-op self times and counters are zero by construction.
	setRequestLayers(rep, requestLayers{})
	if err := layerProbes(rep, env.pool.Workers()); err != nil {
		return err
	}
	return finishSpans(o, rep, spans)
}
