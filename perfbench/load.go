package main

// The load generator shared by the serving workloads: a closed loop of
// nproc callers that each wait for their reply, and a sequential loop
// that sends one call at a time and takes each call's CPU time. One
// process, at most nproc connections.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// nproc bounds sender goroutines and connections.
var nproc = runtime.NumCPU()

// failedLatencyMS is the latency recorded for a failed request: longer
// than any limit, so a failure always counts as missing it.
const failedLatencyMS = 60_000

// call is one HTTP request of a workload's stream.
type call struct {
	path  string
	body  []byte
	items int // predictions the request asks for
}

// outcome is handed to a workload for each completed call, after the
// call's timing has stopped.
type outcome struct {
	idx  int
	body []byte
	root *span // nil when untraced
	err  error
}

// server is an http.Server on a loopback port.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// loadClient sends a workload's calls to one base URL.
type loadClient struct {
	hc   *http.Client
	base string
	tr   *tracer
}

func newLoadClient(base string, tr *tracer) *loadClient {
	return &loadClient{
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc,
			MaxConnsPerHost:     nproc,
		}},
		base: base,
		tr:   tr,
	}
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// do sends one call and returns the whole response body. A traced call
// opens the request's root span and passes its id to the server.
func (c *loadClient) do(cl call) ([]byte, *span, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, c.base+cl.path, bytes.NewReader(cl.body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var root *span
	if c.tr != nil {
		var id string
		root, id = c.tr.root("serve.client")
		req.Header.Set(spanHeader, id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		root.finish()
		return nil, root, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	root.finish()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, root, err
}

// phase counts what one load phase sent.
type phase struct {
	name             string
	sent, ok, failed atomic.Int64
	firstErr         string
	mu               sync.Mutex
}

func (p *phase) record(err error) {
	p.sent.Add(1)
	if err == nil {
		p.ok.Add(1)
		return
	}
	p.failed.Add(1)
	p.mu.Lock()
	if p.firstErr == "" {
		p.firstErr = err.Error()
	}
	p.mu.Unlock()
}

// account folds the phase into the report and its diagnostics.
func (p *phase) account(r *report) {
	r.attempted += p.sent.Load()
	r.failed += p.failed.Load()
	r.notef("%s: sent %d, succeeded %d, failed %d", p.name, p.sent.Load(), p.ok.Load(), p.failed.Load())
	if p.firstErr != "" {
		r.problemf("%s: first failure: %s", p.name, p.firstErr)
	}
}

// closedLoop sends calls first, first+1, … with nproc callers, each
// sending its next call only after the previous one returned. It stops
// issuing calls once seconds have elapsed, or after exactly count calls
// when count > 0, and returns the next unused index. Every passSize
// completions make one pass, whose CPU time is recorded.
func closedLoop(lc *loadClient, r *report, next func(int) call, done func(outcome), first, passSize int, seconds float64, count int) int {
	ph := &phase{name: "closed loop"}
	var counter atomic.Int64
	counter.Store(int64(first))
	var items atomic.Int64
	var mu sync.Mutex
	var finished []time.Duration // process CPU time at each completion
	cpu0, start := cpuNow(), time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if count == 0 && time.Now().After(deadline) {
					return
				}
				i := int(counter.Add(1) - 1)
				if count > 0 && i >= first+count {
					return
				}
				cl := next(i)
				body, root, err := lc.do(cl)
				ph.record(err)
				if err == nil {
					items.Add(int64(cl.items))
				}
				mu.Lock()
				finished = append(finished, cpuNow())
				mu.Unlock()
				done(outcome{idx: i, body: body, root: root, err: err})
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	// Stamps are taken under the lock, so they are in completion order.
	prev := cpu0
	for k := passSize; k <= len(finished); k += passSize {
		r.passS = append(r.passS, (finished[k-1] - prev).Seconds())
		prev = finished[k-1]
	}
	if len(finished) > 0 {
		r.busyS += (finished[len(finished)-1] - cpu0).Seconds()
	}
	r.items += items.Load()
	ph.account(r)
	r.notef("closed loop: %d requests in %.2f wall s (%.1f/s)", len(finished), wall, float64(len(finished))/wall)
	if count > 0 {
		return first + count
	}
	return int(counter.Load())
}

// seqCollectEvery is how many bytes the sequential loop lets the
// program allocate between two collections.
const seqCollectEvery = 64 << 20

// sequentialLoop sends calls first, first+1, … one at a time for
// seconds (or exactly count calls when count > 0) and records each
// call's CPU time: with one call in flight, the CPU the process uses
// between sending it and reading the reply is that call's, on the
// client, the server and the loopback in between. A failed call counts
// as failedLatencyMS.
//
// The collector's pacer is off during the loop; the loop collects
// between calls, outside their timing, whenever seqCollectEvery bytes
// have been allocated. Left to the pacer, a cycle lands on about one
// call in a hundred on serve-hit, so p99 would measure where the cycles
// happen to fall. Collection cost is in the closed loop's figures,
// which run with the pacer on. The first call after a collection runs
// on emptied allocation caches and costs 10–30% more on serve-miss
// (three times as much on serve-hit); it is sent, counted and checked
// but not sampled, since on serve-miss one call in ninety follows a
// collection and those calls alone would move p99.
func sequentialLoop(lc *loadClient, r *report, next func(int) call, done func(outcome), first int, seconds float64, count int) int {
	ph := &phase{name: "sequential"}
	var cpuMS, wallMS []float64
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	metrics.Read(allocs)
	collectAt := allocs[0].Value.Uint64() + seqCollectEvery
	collections := 0
	sample := false // the first call follows the collection above
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	i := first
	for ; count > 0 && i < first+count || count == 0 && time.Now().Before(deadline); i++ {
		c0, t0 := cpuNow(), time.Now()
		body, root, err := lc.do(next(i))
		c, w := float64(cpuNow()-c0)/1e6, float64(time.Since(t0))/1e6
		ph.record(err)
		if err != nil {
			c = failedLatencyMS
		}
		if sample {
			cpuMS, wallMS = append(cpuMS, c), append(wallMS, w)
		}
		sample = true
		done(outcome{idx: i, body: body, root: root, err: err})
		if metrics.Read(allocs); allocs[0].Value.Uint64() >= collectAt {
			runtime.GC()
			collections++
			sample = false
			metrics.Read(allocs)
			collectAt = allocs[0].Value.Uint64() + seqCollectEvery
		}
	}
	r.opMS = append(r.opMS, cpuMS...)
	r.tailMS = append(r.tailMS, percentile(cpuMS, 99))
	ph.account(r)
	r.notef("sequential: %d requests sampled, %d collections; CPU p50 %.3f ms, p99 %.3f ms; wall p50 %.3f ms, p99 %.3f ms",
		len(cpuMS), collections, percentile(cpuMS, 50), percentile(cpuMS, 99), percentile(wallMS, 50), percentile(wallMS, 99))
	return i
}
