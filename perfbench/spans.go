package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the program. Spans of one op share Op; Parent is the
// ID of the enclosing span (0 for an op's root span).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for the length of a traced run; they are
// written out once, at the end, so recording costs an append under a lock.
type recorder struct {
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newID reserves a span (or op) identifier.
func (r *recorder) newID() int64 { return r.ids.Add(1) }

// at converts a wall-clock reading to the recorder's monotonic offset.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span with a pre-reserved id.
func (r *recorder) add(id, parent, op int64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: r.at(start), End: r.at(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns the recorded spans and starts a new, empty set.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = make([]span, 0, 1<<16)
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by the union of its children's intervals. Children
// may overlap each other (parallel work) and are clipped to the parent.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		if open && a <= curHi {
			curHi = max(curHi, b)
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name and counts the ops (distinct Op
// values) the spans belong to, so per-op layer costs divide by the same
// count.
func selfByName(spans []span) (self map[string]int64, count map[string]int, ops int) {
	st := selfTimes(spans)
	self = make(map[string]int64)
	count = make(map[string]int)
	seen := make(map[int64]bool)
	for _, s := range spans {
		self[s.Name] += st[s.ID]
		count[s.Name]++
		seen[s.Op] = true
	}
	return self, count, len(seen)
}

// maxTracedSpan caps each phase of a traced run, which bounds the spans
// kept in memory and written out (a serve-floor second is ~80k spans).
const maxTracedSpan = 5 * time.Second

// tracedSpan is the length of the untraced and of the traced phase of a
// traced run.
func tracedSpan(o opts) time.Duration { return min(o.seconds/2, maxTracedSpan) }

// writeSpans writes spans as gzip-compressed JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating span directory: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating span file: %w", err)
	}
	bw := bufio.NewWriter(f)
	zw := gzip.NewWriter(bw)
	enc := json.NewEncoder(zw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing span file: %w", err)
	}
	return path, nil
}
