package main

import (
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestTailLevelLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 0.99}, {1000, 0.99}, {500, 0.98}, {100, 0.9}, {10, 0.5}, {1, 0.5}} {
		if got := tailLevel(c.n, 0.99); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	// Below 2*minTail samples even the median leaves fewer than minTail
	// beyond it; the helper then reports the median.
	for n := 2 * minTail; n <= 5000; n += 1 + rng.Intn(37) {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		level := tailLevel(n, 0.99)
		v := quantile(xs, level)
		beyond := n - 1 - int(v)
		if beyond < minTail {
			t.Fatalf("n=%d level=%v: %d samples beyond the tail, want >= %d", n, level, beyond, minTail)
		}
		// The level is the highest that qualifies: one step higher would
		// leave fewer than minTail beyond (unless capped at 0.99).
		if level < 0.99 && n-1-int(quantile(xs, level+1.0/float64(n))) >= minTail {
			t.Fatalf("n=%d: level %v is not the highest with %d beyond", n, level, minTail)
		}
	}
}

func TestWindowedTakesMedians(t *testing.T) {
	var ws windowed
	for _, k := range []int{3, 1, 2} {
		w := make([]float64, 2000)
		for i := range w {
			w[i] = float64(k * (2000 - i))
		}
		ws.add(w)
	}
	s := ws.result()
	if s.N != 6000 {
		t.Fatalf("N = %d, want 6000", s.N)
	}
	// The middle window (k=2) holds every median.
	if s.P50 != 2000 || s.P90 != 2*1800 || s.Tail != 2*1980 {
		t.Fatalf("P50, P90, Tail = %v, %v, %v, want 2000, 3600, 3960", s.P50, s.P90, s.Tail)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "request", Start: 0, End: 100},
		// Overlapping children: their union [10, 50) counts once.
		{ID: 2, Parent: 1, Op: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Op: 1, Name: "b", Start: 20, End: 50},
		// A child running past its parent is clipped to it.
		{ID: 4, Parent: 1, Op: 1, Name: "c", Start: 90, End: 120},
		// A grandchild counts against its own parent only.
		{ID: 5, Parent: 3, Op: 1, Name: "d", Start: 25, End: 35},
		{ID: 6, Op: 2, Name: "request", Start: 200, End: 210},
	}
	st := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 20, 4: 30, 5: 10, 6: 10} {
		if st[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, st[id], want)
		}
	}
	self, count, ops := selfByName(spans)
	if ops != 2 || self["request"] != 60 || count["request"] != 2 {
		t.Errorf("selfByName: ops=%d request self=%d count=%d, want 2, 60, 2", ops, self["request"], count["request"])
	}
}

func TestSleepUntilIsPrompt(t *testing.T) {
	var late []float64
	for i := 0; i < 200; i++ {
		due := time.Now().Add(time.Duration(50+i%7*100) * time.Microsecond)
		sleepUntil(due)
		late = append(late, us(time.Since(due)))
	}
	// time.Sleep would overshoot sub-millisecond waits by up to a
	// millisecond; the pacer must stay well below that.
	if p50 := median(late); p50 > 100 {
		t.Fatalf("median overshoot %.1fµs, want < 100µs", p50)
	}
}

func TestPoissonScheduleRate(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(3)), 1000, 10*time.Second)
	if n := len(due); n < 9500 || n > 10500 {
		t.Fatalf("%d arrivals in 10s at 1000/s", n)
	}
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("schedule not ordered")
		}
	}
	again := poissonSchedule(rand.New(rand.NewSource(3)), 1000, 10*time.Second)
	if len(again) != len(due) || again[len(again)-1] != due[len(due)-1] {
		t.Fatal("same seed gave a different schedule")
	}
}

// TestOpenLoopNearHandlerFloor drives a no-op handler at a low rate. With
// latency timed from the due time, the measured latency must stay near the
// handler floor, the same requests timed from their send: the generator's
// timer slack must not be charged to the system. A time.Sleep pacer adds
// 0.2 to 1 ms here (sub-millisecond sleeps round up to the netpoller's
// millisecond tick); the margin allows for a noisy shared host.
func TestOpenLoopNearHandlerFloor(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"results":[]}`))
	})}
	served := make(chan struct{})
	go func() { defer close(served); hs.Serve(ln) }()
	defer func() { hs.Close(); <-served }()

	d := &daemon{base: "http://" + ln.Addr().String(), client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns}}}
	defer d.client.CloseIdleConnections()
	op := mixedOp{form: "workload=noop", stages: []stage{{workload: "noop"}}}
	e := &mixedEnv{d: d, ops: []mixedOp{op}, rng: rand.New(rand.NewSource(1))}
	p := e.openLoop(200, 2*time.Second, nil)
	if p.failed > 0 {
		t.Fatalf("%d requests failed", p.failed)
	}
	var fromSend []float64
	for _, o := range p.outs {
		fromSend = append(fromSend, us(o.done.Sub(o.send)))
	}
	floor := median(fromSend)
	measured := median(latencies(p.outs))
	late := generatorLate(p.outs)
	t.Logf("handler floor p50 %.1fµs, measured p50 %.1fµs, generator late p50 %.1fµs p90 %.1fµs",
		floor, measured, median(late), summarize(late).Tail)
	if measured > floor+200 {
		t.Errorf("measured p50 %.1fµs is more than 200µs above the %.1fµs handler floor", measured, floor)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke tests check
// against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that each reports exactly the metrics BENCHMARK.json lists, with their
// units, and that every output check passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			run, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("workload %q in BENCHMARK.json is not implemented", w.Name)
			}
			rep := newReport()
			o := opts{workload: w.Name, seed: 1, seconds: 2 * time.Second, trace: traced, spansDir: t.TempDir()}
			if err := run(o, rep); err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !rep.correct || rep.attempted == 0 || (rep.failed != 0 && !raceEnabled) {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.Name, traced, rep.correct, rep.attempted, rep.failed, rep.extra["wrong_outputs"])
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
