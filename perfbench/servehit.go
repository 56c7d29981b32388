package main

// serve-hit: a fixed key set, warmed in set-up, sent through a cluster
// router over two in-process shards with real HTTP on both hops. Seven
// of every eight requests are single /predict calls, the eighth a
// 32-item /predict/batch, so the router's partition, fan-out and merge
// run too. No simulation runs: decode, resolve, LRU, encode and the
// router hop carry all of the time.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	hitKeys    = 256 // size of the warmed key set
	hitBatch   = 32  // items of one /predict/batch call
	hitBatches = 128 // distinct batch bodies the stream cycles through
	hitPass    = 256 // requests of one closed-loop pass
	// tracedHitPasses and tracedHitSequential are the fixed work of a
	// traced run.
	tracedHitPasses     = 8
	tracedHitSequential = 2048
)

// tracedHop times the router's HTTP hop to one shard. It registers the
// hop under the router's span id, which HTTPBackend forwards in
// obs.SpanHeader, so the shard's spans join the request tree. Embedding
// keeps the optional interfaces the router type-asserts.
type tracedHop struct {
	*cluster.HTTPBackend
	tr *tracer
}

func (h tracedHop) start(ctx context.Context) *span {
	s := spanFrom(ctx).child("cluster.hop")
	if sc, ok := obs.SpanFromContext(ctx); ok && s != nil {
		h.tr.register(sc.SpanID.String(), s)
	}
	return s
}

func (h tracedHop) Predict(ctx context.Context, req serve.PredictRequest) (*serve.PredictResponse, error) {
	defer h.start(ctx).finish()
	return h.HTTPBackend.Predict(ctx, req)
}

func (h tracedHop) PredictBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	defer h.start(ctx).finish()
	return h.HTTPBackend.PredictBatch(ctx, req)
}

type hitEnv struct {
	cores  []*serve.Core
	shards []*server
	router *cluster.Client
	front  *server
	lc     *loadClient
	// want is each key's response with the cached flag cleared, as
	// served while warming.
	want [][]byte
}

func (e *hitEnv) close() {
	if e.lc != nil {
		e.lc.close()
	}
	if e.front != nil {
		e.front.close()
	}
	if e.router != nil {
		e.router.Close()
	}
	for _, s := range e.shards {
		s.close()
	}
	for _, c := range e.cores {
		c.Close()
	}
}

// buildHit starts two trained shards, the router over them and the
// router's HTTP front, then warms every key through the router.
func buildHit(keys []serve.PredictRequest, tr *tracer) (*hitEnv, error) {
	ctx := context.Background()
	e := &hitEnv{}
	var shards []cluster.Shard
	for i := 0; i < 2; i++ {
		core, err := newTrainedCore(ctx, combos(keys))
		if err != nil {
			e.close()
			return nil, err
		}
		e.cores = append(e.cores, core)
		srv, err := startServer(coreHandler(core, tr, obs.SpanHeader))
		if err != nil {
			e.close()
			return nil, err
		}
		e.shards = append(e.shards, srv)
		var b serve.Backend = cluster.NewHTTPBackend(srv.url, nil)
		if tr != nil {
			b = tracedHop{cluster.NewHTTPBackend(srv.url, nil), tr}
		}
		shards = append(shards, cluster.Shard{Name: srv.url, Backend: b})
	}
	router, err := cluster.New(cluster.Config{Shards: shards})
	if err != nil {
		e.close()
		return nil, err
	}
	e.router = router
	var h = serve.Handler(router)
	if tr != nil {
		h = tracedHandler(tr, "cluster.router", spanHeader, h)
	}
	if e.front, err = startServer(h); err != nil {
		e.close()
		return nil, err
	}
	// Warm through the router's own client, untraced.
	e.lc = newLoadClient(e.front.url, nil)
	for start := 0; start < len(keys); start += hitBatch {
		body, err := json.Marshal(serve.BatchRequest{Requests: keys[start:min(start+hitBatch, len(keys))]})
		if err != nil {
			e.close()
			return nil, err
		}
		resp, _, err := e.lc.do(call{path: "/predict/batch", body: body})
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm keys %d..: %w", start, err)
		}
		items, err := batchItems(resp)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm keys %d..: %w", start, err)
		}
		e.want = append(e.want, items...)
	}
	e.lc.close()
	e.lc = newLoadClient(e.front.url, tr)
	return e, nil
}

// canonical re-encodes one prediction with the cached flag cleared, the
// only field that may differ between answers for one key.
func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var resp serve.PredictResponse
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("decode prediction: %w", err)
	}
	resp.Cached = false
	return json.Marshal(resp)
}

// batchItems returns the canonical body of each item of a batch
// response; an item error fails the whole call.
func batchItems(raw []byte) ([][]byte, error) {
	var resp struct {
		Items []struct {
			Response json.RawMessage `json:"response"`
			Error    string          `json:"error"`
		} `json:"items"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decode batch: %w", err)
	}
	out := make([][]byte, len(resp.Items))
	for i, it := range resp.Items {
		if it.Error != "" {
			return nil, fmt.Errorf("batch item %d: %s", i, it.Error)
		}
		c, err := canonical(it.Response)
		if err != nil {
			return nil, fmt.Errorf("batch item %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}

// hitStream is the serve-hit request stream: request i is a batch when
// i%8 == 7 and otherwise a single key, all drawn from the warmed set.
type hitStream struct {
	singles  []call
	batches  []call
	batchIdx [][]int // key indexes of each batch body
	singleAt []int   // key index of single request i (by i%len)
}

func newHitStream(seed uint64, keys []serve.PredictRequest) (*hitStream, error) {
	rnd := rand.New(rand.NewPCG(seed, 0x417))
	s := &hitStream{}
	for _, k := range keys {
		body, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		s.singles = append(s.singles, call{path: "/predict", body: body, items: 1})
	}
	for b := 0; b < hitBatches; b++ {
		idx := make([]int, hitBatch)
		reqs := make([]serve.PredictRequest, hitBatch)
		for j := range idx {
			idx[j] = rnd.IntN(len(keys))
			reqs[j] = keys[idx[j]]
		}
		body, err := json.Marshal(serve.BatchRequest{Requests: reqs})
		if err != nil {
			return nil, err
		}
		s.batches = append(s.batches, call{path: "/predict/batch", body: body, items: hitBatch})
		s.batchIdx = append(s.batchIdx, idx)
	}
	s.singleAt = make([]int, 1<<16)
	for i := range s.singleAt {
		s.singleAt[i] = rnd.IntN(len(keys))
	}
	return s, nil
}

// at returns the call of request i and, for the checks, which body
// slot it answers: single key k is slot k, batch body b is slot
// hitKeys+b.
func (s *hitStream) at(i int) (call, int) {
	if i%8 == 7 {
		b := (i / 8) % len(s.batches)
		return s.batches[b], hitKeys + b
	}
	k := s.singleAt[i%len(s.singleAt)]
	return s.singles[k], k
}

func runServeHit(opts options) (*report, error) {
	r := &report{}
	keys, err := genKeys(opts.seed, 0x417, hitKeys)
	if err != nil {
		return nil, err
	}
	stream, err := newHitStream(opts.seed, keys)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	env, err := timeSetups(r, func() (*hitEnv, error) { return buildHit(keys, tr) }, (*hitEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	before := hitCounters(env)

	// Every response must repeat the first response seen for the same
	// request body byte for byte; the first ones are checked against
	// the warmed answers after timing.
	var mu sync.Mutex
	first := map[int][]byte{}
	mismatch := 0
	next := func(i int) call {
		c, _ := stream.at(i)
		return c
	}
	done := func(o outcome) {
		if o.err != nil {
			return
		}
		_, slot := stream.at(o.idx)
		mu.Lock()
		defer mu.Unlock()
		if f, ok := first[slot]; !ok {
			first[slot] = o.body
		} else if !bytes.Equal(f, o.body) {
			mismatch++
		}
	}
	closedN, seqN := 0, 0
	if opts.trace {
		closedN, seqN = tracedHitPasses*hitPass, tracedHitSequential
	}
	idx := closedLoop(env.lc, r, next, done, 0, hitPass, closedShare*opts.seconds, closedN)
	sequentialLoop(env.lc, r, next, done, idx, (1-closedShare)*opts.seconds, seqN)
	r.heapMB = liveHeapMB()
	after := hitCounters(env)

	if mismatch > 0 {
		r.problemf("serve-hit: %d responses differ from the first response to the same request", mismatch)
	}
	checkHit(r, env, stream, first)
	r.digest = digestBodies(env.want)
	hits := after["serve.cache.hits"] - before["serve.cache.hits"]
	misses := after["serve.cache.misses"] - before["serve.cache.misses"]
	if misses != 0 {
		r.problemf("serve-hit: %d cache misses after warming", misses)
	}
	r.notef("serve-hit: %d cache hits, %d misses", hits, misses)
	if opts.trace {
		self, total := tr.selfTimes(nil)
		r.layers = map[string]float64{}
		for _, name := range []string{"cluster.batch.subbatches", "cluster.reroutes", "cluster.retry.attempts", "cluster.shard.errors", "serve.cache.hits"} {
			r.layers[name] = float64(after[name] - before[name])
		}
		r.layers["serve.hit_ratio"] = float64(hits) / float64(hits+misses)
		layerMeans(r, self, total, len(tr.roots))
	}
	return r, nil
}

// hitCounters reads the router's cluster.* counters and the shards'
// serve.* counters.
func hitCounters(e *hitEnv) map[string]int64 {
	out := map[string]int64{}
	for k, v := range e.router.Metrics() {
		if strings.HasPrefix(k, "cluster.") {
			out[k] = v
		}
	}
	for _, c := range e.cores {
		for k, v := range c.Metrics() {
			out[k] += v
		}
	}
	return out
}

// checkHit compares the first answer to every request body with the
// answers served while warming, ignoring the cached flag.
func checkHit(r *report, e *hitEnv, s *hitStream, first map[int][]byte) {
	for slot, body := range first {
		var got [][]byte
		var keys []int
		if slot < hitKeys {
			c, err := canonical(body)
			if err != nil {
				r.problemf("serve-hit key %d: %v", slot, err)
				continue
			}
			got, keys = [][]byte{c}, []int{slot}
		} else {
			items, err := batchItems(body)
			if err != nil {
				r.problemf("serve-hit batch %d: %v", slot-hitKeys, err)
				continue
			}
			got, keys = items, s.batchIdx[slot-hitKeys]
		}
		for j, k := range keys {
			if !bytes.Equal(got[j], e.want[k]) {
				r.problemf("serve-hit key %d: answer differs from the warmed answer", k)
			}
		}
	}
	r.attempted += int64(len(first))
	r.notef("serve-hit: %d distinct request bodies matched the warmed answers", len(first))
}
