package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile for it to be reported at all.
const minTail = 10

// tailLevel returns the highest percentile level, at most want, that leaves
// at least minTail of n samples strictly above the sample it selects. With
// fewer than 2*minTail samples not even the median qualifies, and it
// returns 0.5.
func tailLevel(n int, want float64) float64 {
	if n <= minTail {
		return 0.5
	}
	// quantile picks index ceil(level*n)-1, leaving n-ceil(level*n) samples
	// beyond it; level = 1 - minTail/n leaves exactly minTail.
	level := 1 - float64(minTail)/float64(n)
	if level > want {
		level = want
	}
	if level < 0.5 {
		level = 0.5
	}
	return level
}

// quantile returns the nearest-rank quantile of sorted xs at level q: the
// sample at index ceil(q*n)-1.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// summary is a latency distribution reduced to what the benchmark reports:
// the median, the 90th percentile and the highest supported tail percentile
// up to p99.
type summary struct {
	N         int
	P50       float64
	P90       float64
	Tail      float64
	TailLevel float64
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = quantile(xs, 0.5)
	s.P90 = quantile(xs, 0.9)
	s.TailLevel = tailLevel(len(xs), 0.99)
	s.Tail = quantile(xs, s.TailLevel)
	return s
}

// windowed summarizes each window of a run on its own as it ends, and
// reports the median, across windows, of each window's median and tail. A
// burst of interference confined to one window then moves one of several
// values instead of the whole tail, and the run keeps no samples.
type windowed struct{ sums []summary }

// add summarizes one window, sorting xs in place.
func (w *windowed) add(xs []float64) {
	if len(xs) > 0 {
		w.sums = append(w.sums, summarize(xs))
	}
}

// result returns the medians across windows. N counts all samples;
// TailLevel is the lowest level any window supported.
func (w *windowed) result() summary {
	if len(w.sums) == 0 {
		return summary{}
	}
	var p50s, p90s, tails []float64
	out := summary{TailLevel: 1}
	for _, s := range w.sums {
		p50s = append(p50s, s.P50)
		p90s = append(p90s, s.P90)
		tails = append(tails, s.Tail)
		out.N += s.N
		out.TailLevel = min(out.TailLevel, s.TailLevel)
	}
	out.P50, out.P90, out.Tail = median(p50s), median(p90s), median(tails)
	return out
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return quantile(c, 0.5)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
