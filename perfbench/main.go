// Command perfbench is the repository's benchmark. It runs one workload
// against the program's own packages, checks every output, and prints, as
// its last line, one JSON object with the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) of that run.
//
//	perfbench --workload paper-mpdata --seed 1 --seconds 20 --trace 0
//
// Workloads: paper-mpdata (the paper's Figure 2 kernel on the half-barrier
// Pool), serve-floor (closed-loop minimal /run requests against an
// in-process loopd) and serve-mixed (open-loop synthesized traffic at fixed
// rates plus a capacity search). README.md explains why each exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// opts is one invocation's parameters.
type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	spansDir string
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's outcome. Metrics go into the result line;
// extra values (context the result line has no key for) are printed on a
// detail line before it.
type report struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
	extra     map[string]any
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, extra: map[string]any{}}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// wrong records an output that failed its check: the run is marked
// incorrect and the first few reasons are kept for the detail line.
func (r *report) wrong(format string, args ...any) {
	r.correct = false
	msgs, _ := r.extra["wrong_outputs"].([]string)
	if len(msgs) < 8 {
		r.extra["wrong_outputs"] = append(msgs, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(o opts, rep *report) error

var workloads = map[string]workloadFunc{
	"paper-mpdata": runPaperMPDATA,
	"serve-floor":  runServeFloor,
	"serve-mixed":  runServeMixed,
}

func main() {
	var o opts
	var secs int
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: paper-mpdata, serve-floor or serve-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.IntVar(&secs, "seconds", 20, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "directory traced runs write their spans to")
	flag.Parse()
	o.seconds = time.Duration(secs) * time.Second
	o.trace = traceFlag == 1

	run, ok := workloads[o.workload]
	if !ok || secs < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rep := newReport()
	if err := run(o, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}

	detail := map[string]any{
		"workload": o.workload,
		"seed":     o.seed,
		"seconds":  secs,
		"trace":    o.trace,
		"machine":  machine(),
		"commit":   commit(),
	}
	for k, v := range rep.extra {
		detail[k] = v
	}
	emit(os.Stdout, "detail", detail)
	emit(os.Stdout, "", result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics})
	if !rep.correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// emit prints v as one JSON line, prefixed with "# <tag> " when tag is set.
func emit(f *os.File, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding %s: %v\n", tag, err)
		os.Exit(1)
	}
	if tag != "" {
		fmt.Fprintf(f, "# %s %s\n", tag, b)
		return
	}
	fmt.Fprintf(f, "%s\n", b)
}

// machine is the block every result records so numbers are compared only
// with numbers from the same kind of machine.
func machine() map[string]any {
	return map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// commit returns the VCS revision the binary was built from, when the build
// recorded one (a source tree without version control records none).
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// timedSetup runs build n times, keeps the last result, releases the others
// with discard, and returns the median build time in seconds. Repeating the
// set-up makes setup_s a median rather than one noisy sample.
func timedSetup[T any](n int, build func() (T, error), discard func(T)) (T, float64, error) {
	var zero, last T
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i > 0 {
			discard(last)
		}
		last = v
	}
	return last, median(secs), nil
}
