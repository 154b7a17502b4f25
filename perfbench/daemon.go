package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"loopsched/internal/jobs"
	"loopsched/internal/loopd"
)

// daemonConfig is the Config cmd/loopd builds from its default flags:
// GOMAXPROCS workers, one shard per topology group, elastic and fair
// scheduling, lifecycle tracing on with a 4096-event subscriber buffer, and
// no shedding.
func daemonConfig() loopd.Config {
	return loopd.Config{Trace: true, TraceBuffer: 4096}
}

// maxConns is the number of client connections: at most one per core of
// the 2-core reference machine, so load comes from a fixed, small client.
const maxConns = 2

// spanHeader carries a request's op and round-trip span ids to the
// handler wrapper on traced runs.
const spanHeader = "X-Perfbench-Span"

// daemon is an in-process loopd served over a loopback listener, as
// `loadgen -selfserve` serves it, with a client limited to maxConns
// keep-alive connections.
type daemon struct {
	srv    *loopd.Server
	hs     *http.Server
	client *http.Client
	base   string
	served chan struct{}
	// rec, when set, makes the handler wrapper record a loopd.handler span
	// for every request that carries spanHeader.
	rec atomic.Pointer[recorder]
}

func startDaemon() (*daemon, error) {
	srv, err := loopd.New(daemonConfig())
	if err != nil {
		return nil, fmt.Errorf("starting loopd: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		srv:    srv,
		base:   "http://" + ln.Addr().String(),
		served: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
	}
	d.hs = &http.Server{Handler: http.HandlerFunc(d.serve)}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return d, nil
}

// serve is the handler wrapper: it forwards to loopd and, on traced runs,
// records the handler span around ServeHTTP.
func (d *daemon) serve(w http.ResponseWriter, r *http.Request) {
	rec := d.rec.Load()
	h := r.Header.Get(spanHeader)
	if rec == nil || h == "" {
		d.srv.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	d.srv.ServeHTTP(w, r)
	t1 := time.Now()
	op, parent, handler := parseSpanHeader(h)
	rec.add(handler, parent, op, "loopd.handler", t0, t1)
}

func spanHeaderValue(op, parent, handler int64) string {
	return strconv.FormatInt(op, 10) + ":" + strconv.FormatInt(parent, 10) + ":" + strconv.FormatInt(handler, 10)
}

func parseSpanHeader(h string) (op, parent, handler int64) {
	f := strings.Split(h, ":")
	if len(f) != 3 {
		return 0, 0, 0
	}
	op, _ = strconv.ParseInt(f[0], 10, 64)
	parent, _ = strconv.ParseInt(f[1], 10, 64)
	handler, _ = strconv.ParseInt(f[2], 10, 64)
	return op, parent, handler
}

// close shuts the HTTP server down, waits for its serve loop to exit, and
// drains and releases the runtime.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Close()
}

// call is one /run request's outcome as the client saw it.
type call struct {
	status int
	body   runResp
	err    error
	// handlerID is the id reserved for the request's loopd.handler span.
	handlerID int64
}

// runResp is the part of a /run response the benchmark checks.
type runResp struct {
	WallSeconds float64     `json:"wall_seconds"`
	Results     []jobResult `json:"results"`
	Pipeline    []struct {
		Workload string      `json:"workload"`
		N        int         `json:"n"`
		Results  []jobResult `json:"results"`
	} `json:"pipeline"`
}

type jobResult struct {
	Result float64 `json:"result"`
	Error  string  `json:"error"`
}

// post sends one POST request to path with the given form body and reads
// the whole response. With rec set it tags the request with span ids for
// the handler wrapper.
func (d *daemon) post(path, form string, rec *recorder, op, parent int64) call {
	req, err := http.NewRequest(http.MethodPost, d.base+path, strings.NewReader(form))
	if err != nil {
		return call{err: err}
	}
	if form != "" {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	var c call
	if rec != nil {
		c.handlerID = rec.newID()
		req.Header.Set(spanHeader, spanHeaderValue(op, parent, c.handlerID))
	}
	resp, err := d.client.Do(req)
	if err != nil {
		c.err = err
		return c
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.status = resp.StatusCode
	if err != nil {
		c.err = err
		return c
	}
	if c.status == http.StatusOK {
		if err := json.Unmarshal(data, &c.body); err != nil {
			c.err = fmt.Errorf("decoding /run response: %w", err)
		}
	}
	return c
}

const burdenSettle = 200

// jobBurden times n empty P-iteration jobs through the daemon's runtime,
// submit to join, one by one, and returns their median in ns: the per-loop
// burden of the scheduler that runs the served loops.
func jobBurden(rt *jobs.Sharded, n int, buf []float64) (float64, error) {
	req := jobs.Request{N: rt.P(), Label: "perfbench-empty", Body: func(w, lo, hi int) {}}
	buf = buf[:0]
	// The first burdenSettle jobs are not timed: they bring the runtime from
	// whatever state the previous traffic left it in to the back-to-back
	// state every timed job then sees.
	for i := -burdenSettle; i < n; i++ {
		t := time.Now()
		j, err := rt.Submit(req)
		if err != nil {
			return 0, fmt.Errorf("submitting empty job: %w", err)
		}
		_, err = j.Wait()
		j.Release()
		if err != nil {
			return 0, fmt.Errorf("empty job: %w", err)
		}
		if i >= 0 {
			buf = append(buf, float64(time.Since(t)))
		}
	}
	return median(buf), nil
}
