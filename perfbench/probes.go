package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"loopsched"
	"loopsched/internal/barrier"
	"loopsched/internal/bench"
)

// Layer probes: short, workload-independent measurements of single layers,
// taken by every traced run so each run reports every per-layer metric.

const (
	probeLoops    = 3000
	probeRequests = 3000
)

// layerProbes measures the barrier wave, the Table 1 schedulers' empty-loop
// burden, the jobs submit path and the allocation cost of the handler and
// of the loopback transport.
func layerProbes(rep *report, p int) error {
	rep.set("barrier.wave_ns", "ns", barrierWave(p, 20000))

	paper := map[string]map[string]float64{}
	for _, name := range bench.Table1Schedulers() {
		s, err := bench.NewScheduler(name, p)
		if err != nil {
			return err
		}
		body := func(w, lo, hi int) {}
		for i := 0; i < 200; i++ {
			s.For(p, body)
		}
		buf := make([]float64, 0, probeLoops)
		for i := 0; i < probeLoops; i++ {
			t := time.Now()
			s.For(p, body)
			buf = append(buf, float64(time.Since(t)))
		}
		s.Close()
		ns := median(buf)
		rep.set("paper.burden_ns."+name, "ns", ns)
		paper[name] = map[string]float64{"measured_us": ns / 1e3, "paper_us": bench.PaperBurdens[name]}
	}
	rep.extra["paper_table1"] = paper

	waitUs, allocs, err := submitProbe()
	if err != nil {
		return err
	}
	rep.set("jobs.submit_wait_us", "us", waitUs)
	rep.set("jobs.submit_allocs", "count", allocs)

	handler, transport, err := allocProbe()
	if err != nil {
		return err
	}
	rep.set("loopd.handler_allocs", "count", handler)
	rep.set("http.allocs_per_req", "count", transport)
	return nil
}

// barrierWave drives a tree half-barrier for p workers with p goroutines,
// each doing Release then Join per episode, and returns the median
// per-episode time seen by the root over blocks of episodes.
func barrierWave(p, episodes int) float64 {
	const block = 500
	episodes -= episodes % block
	b := barrier.NewTreeForWorkers(p)
	root := b.Root()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		if w == root {
			continue
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < episodes; i++ {
				b.Release(w)
				b.Join(w)
			}
		}(w)
	}
	per := make([]float64, 0, episodes/block)
	for i := 0; i < episodes; i += block {
		t := time.Now()
		for k := 0; k < block; k++ {
			b.Release(root)
			b.Join(root)
		}
		per = append(per, float64(time.Since(t))/block)
	}
	wg.Wait()
	return median(per)
}

// submitProbe times Pool.SubmitReduce of a 1-iteration job, then Result,
// then Release, in a closed loop on a default Pool, returning the median
// time (µs) and the heap allocations per cycle.
func submitProbe() (waitUs, allocs float64, err error) {
	pool := loopsched.New(loopsched.Config{})
	defer pool.Close()
	add := func(a, b float64) float64 { return a + b }
	body := func(w, lo, hi int, acc float64) float64 { return acc + float64(hi-lo) }
	cycle := func() error {
		j := pool.SubmitReduce(1, 0, add, body)
		v, err := j.Result()
		j.Release()
		if err != nil {
			return fmt.Errorf("submit probe: %w", err)
		}
		if v != 1 {
			return fmt.Errorf("submit probe: result %v, want 1", v)
		}
		return nil
	}
	for i := 0; i < 2000; i++ {
		if err := cycle(); err != nil {
			return 0, 0, err
		}
	}
	a := readRT()
	for i := 0; i < probeLoops; i++ {
		if err := cycle(); err != nil {
			return 0, 0, err
		}
	}
	allocs = float64(allocsSince(a)) / probeLoops
	buf := make([]float64, 0, probeLoops)
	for i := 0; i < probeLoops; i++ {
		t := time.Now()
		if err := cycle(); err != nil {
			return 0, 0, err
		}
		buf = append(buf, us(time.Since(t)))
	}
	return median(buf), allocs, nil
}

// allocProbe counts heap allocations per floor request on a fresh, warmed
// daemon: through ServeHTTP into an in-memory recorder (the handler's own
// allocations, net of building the request and recorder), and over the
// loopback transport (everything else a request allocates, client and
// server side).
func allocProbe() (handler, transport float64, err error) {
	d, err := setupFloor()
	if err != nil {
		return 0, 0, err
	}
	defer d.close()
	build := func() (*httptest.ResponseRecorder, *http.Request) {
		return httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, floorPath, nil)
	}
	a := readRT()
	for i := 0; i < probeRequests; i++ {
		build()
	}
	base := allocsSince(a)
	a = readRT()
	for i := 0; i < probeRequests; i++ {
		w, r := build()
		d.srv.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			return 0, 0, fmt.Errorf("alloc probe: status %d", w.Code)
		}
	}
	handler = float64(allocsSince(a)-base) / probeRequests

	a = readRT()
	for _, o := range d.closedLoop(0, probeRequests, nil, floorRequest) {
		if o.fail != "" {
			return 0, 0, fmt.Errorf("alloc probe: %s", o.fail)
		}
	}
	total := float64(allocsSince(a)) / probeRequests
	return handler, total - handler, nil
}

// setGoRuntime sets the Go runtime metrics between two readings over ops
// operations.
func setGoRuntime(rep *report, before, after rtSnap, ops int) {
	rep.set("goruntime.sched_latency_p99_us", "us", schedLatencyP99(before, after))
	pause := 0.0
	if ops > 0 {
		pause = float64(after.gcPause-before.gcPause) / 1e6 / float64(ops) * 1000
	}
	rep.set("goruntime.gc_pause_ms", "ms/1000ops", pause)
}

// finishSpans writes the traced run's spans out.
func finishSpans(o opts, rep *report, spans []span) error {
	path, err := writeSpans(o.spansDir, fmt.Sprintf("%s-seed%d.jsonl.gz", o.workload, o.seed), spans)
	if err != nil {
		return err
	}
	rep.extra["spans_file"] = path
	rep.extra["spans"] = len(spans)
	return nil
}
