package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

const (
	mAllocs   = "/gc/heap/allocs:objects"
	mLive     = "/gc/heap/live:bytes"
	mSchedLat = "/sched/latencies:seconds"
	// heapSampleT is the background sampling period of the live heap; it
	// changes only when a GC cycle ends, so sampling faster finds nothing
	// more and only wakes a thread that competes with the workload.
	heapSampleT = 20 * time.Millisecond
)

// liveHeap returns the heap live as of the last completed GC cycle: what
// the program retained, independent of how much garbage awaits collection.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: mLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler samples the live heap over a measured phase and reports its
// median. The live heap (what the last GC found reachable) leaves GC timing
// out of the figure; the median rather than the maximum keeps out the rare
// GC that lands while many requests are in flight, which made a peak swing
// by a quarter from run to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	mib  []float64
}

// startHeapSampler starts a sampler; with background set, a goroutine
// samples every heapSampleT, otherwise the caller samples at points of its
// choice.
func startHeapSampler(background bool) *heapSampler {
	h := &heapSampler{}
	h.sample()
	if !background {
		return h
	}
	h.stop, h.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapSampleT)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	v := float64(liveHeap()) / (1 << 20)
	h.mu.Lock()
	h.mib = append(h.mib, v)
	h.mu.Unlock()
}

// finish stops sampling and returns the median live heap in MiB.
func (h *heapSampler) finish() float64 {
	if h.stop != nil {
		close(h.stop)
		<-h.done
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return median(h.mib)
}

// rtSnap is a reading of the Go runtime counters taken at a phase boundary.
type rtSnap struct {
	allocs  uint64
	gcPause uint64 // cumulative stop-the-world GC pause, ns
	sched   *metrics.Float64Histogram
}

func readRT() rtSnap {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mSchedLat}}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{allocs: s[0].Value.Uint64(), gcPause: ms.PauseTotalNs, sched: s[1].Value.Float64Histogram()}
}

// allocsSince returns the heap objects allocated since a.
func allocsSince(a rtSnap) uint64 {
	s := []metrics.Sample{{Name: mAllocs}}
	metrics.Read(s)
	return s[0].Value.Uint64() - a.allocs
}

// schedLatencyP99 returns the p99 of goroutine scheduling latency (runnable
// to running) between two readings, in µs, from the runtime's histogram:
// the upper edge of the bucket holding the 99th percentile.
func schedLatencyP99(a, b rtSnap) float64 {
	ha, hb := a.sched, b.sched
	var total uint64
	delta := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		delta[i] = hb.Counts[i] - ha.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var acc uint64
	for i, c := range delta {
		acc += c
		if acc >= want {
			edge := hb.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = hb.Buckets[i]
			}
			return edge * 1e6
		}
	}
	return 0
}
