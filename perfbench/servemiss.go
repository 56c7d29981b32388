package main

// serve-miss: POST /predict over HTTP loopback to one serve.Core, every
// key distinct, so every request runs serve.Simulate (the full-rescan
// activity.Analyze chain).

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/serve"
)

const (
	// missPass is the request count of one closed-loop pass.
	missPass = 150
	// missCheckEvery: every missCheckEvery-th response is re-simulated
	// and compared bit for bit.
	missCheckEvery = 32
	// digestKeys is how many leading keys' responses form the digest.
	digestKeys = 64
	// closedShare is the share of the run spent in the closed loop; the
	// sequential loop gets the rest.
	closedShare = 0.5
	// keysPerSecond is how many distinct keys are generated per second
	// of the run, well above what both loops together send.
	keysPerSecond = 800
	// tracedPasses and tracedSequential are the fixed work of a traced
	// run.
	tracedPasses     = 4
	tracedSequential = 512
	// sampleOutputs is the serving default fidelity (serve.Config).
	sampleOutputs = 128
)

var sortKinds = []string{"rows", "cols", "withinrows"}

// patternStages are the pipeline shapes a generated key ends in.
var patternStages = []string{"", "flip", "sort", "sparsify", "zerolsb"}

// paramStrata is how many bands the range of each stage's parameter is
// split into. A stage's cost moves with its parameter (flip(0.2) on a
// 256² FP32 matrix costs four times flip(0.01)), and the costliest keys
// set p99, so the key stream visits the bands in turn, one per
// 150-key cycle, and the seed draws the value within the band.
const paramStrata = 4

// genPattern draws one pattern pipeline with seeded parameters: a
// Gaussian or constant fill, then the given stage, if any, whose
// parameter sits at level (in [0, 1)) of its range.
func genPattern(rnd *rand.Rand, gaussian bool, stage string, level float64) string {
	var base string
	if gaussian {
		base = fmt.Sprintf("gaussian(mean=%.1f, std=%.1f)", rnd.NormFloat64()*100, 1+rnd.Float64()*300)
	} else {
		base = fmt.Sprintf("constant(%.2f)", (rnd.Float64()*2-1)*100)
	}
	switch stage {
	case "flip":
		return base + fmt.Sprintf(" | flip(%.3f)", 0.01+level*0.49)
	case "sort":
		return base + fmt.Sprintf(" | sort(%s, %d%%)", sortKinds[rnd.IntN(len(sortKinds))], 10+int(level*91))
	case "sparsify":
		return base + fmt.Sprintf(" | sparsify(%d%%)", 5+int(level*91))
	case "zerolsb":
		return base + fmt.Sprintf(" | zerolsb(%d)", 1+int(level*6))
	default:
		return base
	}
}

// genKeys returns n requests with distinct cache keys across every
// device preset, every dtype and sizes 128 and 256. The axes that set a
// request's cost — size, final stage, dtype and fill — cycle through
// every combination every 150 keys, and the stage parameter's band
// changes from one cycle to the next, so each run sends the same mix;
// the seed draws the device and every pattern parameter within its
// band.
func genKeys(seed, stream uint64, n int) ([]serve.PredictRequest, error) {
	rnd := rand.New(rand.NewPCG(seed, stream))
	devs := device.Names()
	dts := matrix.ExtendedDTypes
	seen := map[serve.Key]bool{}
	out := make([]serve.PredictRequest, 0, n)
	for len(out) < n {
		i := len(out)
		req := serve.PredictRequest{
			Device: devs[rnd.IntN(len(devs))],
			DType:  dts[i/10%len(dts)].String(),
			Pattern: genPattern(rnd, i/50%3 < 2, patternStages[i/2%len(patternStages)],
				(float64(i/150%paramStrata)+rnd.Float64())/paramStrata),
			Size: 128 << (i % 2),
		}
		res, err := serve.ResolveRequest(req, 0)
		if err != nil {
			return nil, fmt.Errorf("generated request %+v: %w", req, err)
		}
		if !seen[res.Key] {
			seen[res.Key] = true
			out = append(out, req)
		}
	}
	return out, nil
}

// combos lists the distinct (device, dtype) pairs of the requests.
func combos(reqs []serve.PredictRequest) []serve.TrainRequest {
	seen := map[[2]string]bool{}
	var out []serve.TrainRequest
	for _, r := range reqs {
		if k := [2]string{r.Device, r.DType}; !seen[k] {
			seen[k] = true
			out = append(out, serve.TrainRequest{Device: r.Device, DType: r.DType})
		}
	}
	return out
}

// newTrainedCore builds a Core and fits the predictor of every combo,
// so no request pays for training.
func newTrainedCore(ctx context.Context, cs []serve.TrainRequest) (*serve.Core, error) {
	core := serve.NewCore(serve.Config{})
	for _, tr := range cs {
		if _, err := core.Train(ctx, tr); err != nil {
			core.Close()
			return nil, fmt.Errorf("train %s/%s: %w", tr.Device, tr.DType, err)
		}
	}
	return core, nil
}

// tracedCore times the Backend calls of a Core. Embedding keeps every
// optional interface serve.Handler type-asserts (TracerProvider,
// CacheMigrator, PromSource).
type tracedCore struct {
	*serve.Core
}

func (c tracedCore) Predict(ctx context.Context, req serve.PredictRequest) (*serve.PredictResponse, error) {
	s := spanFrom(ctx).child("serve.core")
	defer s.finish()
	return c.Core.Predict(ctx, req)
}

func (c tracedCore) PredictBatch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	s := spanFrom(ctx).child("serve.core")
	defer s.finish()
	return c.Core.PredictBatch(ctx, req)
}

// coreHandler is the HTTP surface of a Core, with spans when traced;
// hdr names the header that carries the parent span's id.
func coreHandler(core *serve.Core, tr *tracer, hdr string) http.Handler {
	if tr == nil {
		return serve.Handler(core)
	}
	return tracedHandler(tr, "serve.handler", hdr, serve.Handler(tracedCore{core}))
}

type missEnv struct {
	core *serve.Core
	srv  *server
	lc   *loadClient
}

func (e *missEnv) close() {
	e.lc.close()
	e.srv.close()
	e.core.Close()
}

func runServeMiss(opts options) (*report, error) {
	r := &report{}
	n := int(math.Ceil(opts.seconds * keysPerSecond))
	if opts.trace {
		n = tracedPasses*missPass + tracedSequential
	}
	reqs, err := genKeys(opts.seed, 0x5E7A, n)
	if err != nil {
		return nil, err
	}
	calls := make([]call, len(reqs))
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		calls[i] = call{path: "/predict", body: body, items: 1}
	}
	cs := combos(reqs)

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	ctx := context.Background()
	env, err := timeSetups(r, func() (*missEnv, error) {
		core, err := newTrainedCore(ctx, cs)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(coreHandler(core, tr, spanHeader))
		if err != nil {
			core.Close()
			return nil, err
		}
		return &missEnv{core: core, srv: srv, lc: newLoadClient(srv.url, tr)}, nil
	}, (*missEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	before := env.core.Metrics()

	// Keep the bodies the checks need: the digest keys, every
	// missCheckEvery-th key and, traced, every key.
	var mu sync.Mutex
	bodies := map[int][]byte{}
	roots := map[int]*span{}
	exhausted := false
	next := func(i int) call {
		if i >= len(calls) {
			mu.Lock()
			exhausted = true
			mu.Unlock()
			i %= len(calls)
		}
		return calls[i]
	}
	done := func(o outcome) {
		if o.err != nil || o.idx >= len(calls) {
			return
		}
		if opts.trace || o.idx < digestKeys || o.idx%missCheckEvery == 0 {
			mu.Lock()
			bodies[o.idx] = o.body
			roots[o.idx] = o.root
			mu.Unlock()
		}
	}

	closedN, seqN := 0, 0
	if opts.trace {
		closedN, seqN = tracedPasses*missPass, tracedSequential
	}
	idx := closedLoop(env.lc, r, next, done, 0, missPass, closedShare*opts.seconds, closedN)
	sequentialLoop(env.lc, r, next, done, idx, (1-closedShare)*opts.seconds, seqN)
	r.heapMB = liveHeapMB()
	if exhausted {
		r.problemf("serve-miss ran out of distinct keys (%d generated)", len(calls))
	}
	after := env.core.Metrics()

	// Output checks run after all timing.
	first := make([][]byte, digestKeys)
	for i := range first {
		first[i] = bodies[i]
	}
	r.digest = digestBodies(first)
	checkMiss(r, reqs, bodies, opts.trace)
	if opts.trace {
		billed := reexecMiss(r, reqs, bodies, roots)
		self, total := tr.selfTimes(billed)
		r.layers = map[string]float64{
			"serve.simulations":  float64(after["serve.simulations"] - before["serve.simulations"]),
			"serve.cache.misses": float64(after["serve.cache.misses"] - before["serve.cache.misses"]),
		}
		layerMeans(r, self, total, len(roots))
	}
	return r, nil
}

// digestBodies hashes the bodies in order, each prefixed by its length.
func digestBodies(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		fmt.Fprintf(h, "%d:", len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkMiss re-simulates the kept responses with serve.Simulate and
// the predictor the serving layer's training sweep fits, and compares
// the served simulated_w and predicted_w bit for bit. A traced run keeps
// every response; there reexecMiss checks simulated_w of all of them
// and this checks every missCheckEvery-th.
func checkMiss(r *report, reqs []serve.PredictRequest, bodies map[int][]byte, traced bool) {
	for i := 0; i < digestKeys; i++ {
		if bodies[i] == nil {
			r.problemf("serve-miss: no response for digest key %d", i)
		}
	}
	preds := map[[2]string]*power.Predictor{}
	checked := 0
	for i, body := range bodies {
		if traced && i%missCheckEvery != 0 {
			continue
		}
		checked++
		res, err := serve.ResolveRequest(reqs[i], 0)
		if err != nil {
			r.problemf("serve-miss key %d: %v", i, err)
			continue
		}
		got, err := decodePredict(body)
		if err != nil {
			r.problemf("serve-miss key %d: %v", i, err)
			continue
		}
		rep, res2, err := serve.Simulate(res.Device, res.DType, res.Pattern, res.Key.Size, sampleOutputs)
		if err != nil {
			r.problemf("serve-miss key %d: simulate: %v", i, err)
			continue
		}
		tk := [2]string{reqs[i].Device, reqs[i].DType}
		pred := preds[tk]
		if pred == nil {
			pred, _, err = experiments.TrainPredictor(res.Device, res.DType, experiments.TrainingConfig{})
			if err != nil {
				r.problemf("serve-miss key %d: train: %v", i, err)
				continue
			}
			preds[tk] = pred
		}
		want := pred.Predict(power.FeaturesOf(rep, res2))
		if math.Float64bits(got.SimulatedW) != math.Float64bits(res2.AvgPowerW) ||
			math.Float64bits(got.PredictedW) != math.Float64bits(want) {
			r.problemf("serve-miss key %d (%s): served %v/%v W, direct %v/%v W",
				i, res.Key.Pattern, got.SimulatedW, got.PredictedW, res2.AvgPowerW, want)
		}
		if got.Cached {
			r.problemf("serve-miss key %d was served from the cache", i)
		}
	}
	r.attempted += int64(checked)
	r.notef("serve-miss: %d responses re-simulated and matched bit for bit", checked)
}

func decodePredict(body []byte) (*serve.PredictResponse, error) {
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &resp, nil
}

// reexecMiss re-runs the compute layers of every served key, timing
// each module's public function, and checks the result against the
// served simulated_w bit for bit. The steps and seeds are those of
// serve.Simulate. Each key's compute time is billed to its request's
// serve.core span, where it ran when served.
func reexecMiss(r *report, reqs []serve.PredictRequest, bodies map[int][]byte, roots map[int]*span) map[string]time.Duration {
	billed := map[string]time.Duration{}
	for i, body := range bodies {
		res, err := serve.ResolveRequest(reqs[i], 0)
		if err != nil {
			r.problemf("serve-miss key %d: %v", i, err)
			continue
		}
		got, err := decodePredict(body)
		if err != nil {
			r.problemf("serve-miss key %d: %v", i, err)
			continue
		}
		t0 := time.Now()
		base := rng.Derive(0x5E12FE, "serve/"+res.Pattern.Name)
		a := matrix.New(res.DType, res.Key.Size, res.Key.Size)
		res.Pattern.Apply(a, rng.Derive(base.Uint64(), "A"))
		b := matrix.New(res.DType, res.Key.Size, res.Key.Size)
		res.Pattern.Apply(b, rng.Derive(base.Uint64(), "B"))
		t1 := time.Now()
		prob := kernels.NewTransposedProblem(res.DType, a, b)
		// Both operands are scanned concurrently, as activity.Analyze
		// does on a multi-core box; B is stored transposed, so its
		// operand stream is ScanA of the stored matrix.
		var stA *activity.OperandStats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			stA = activity.ScanA(a)
		}()
		stB := activity.ScanA(b)
		wg.Wait()
		t2 := time.Now()
		rep, err := activity.AnalyzeWithStats(prob, activity.Config{SampleOutputs: sampleOutputs, Seed: 0xAC71}, stA, stB)
		if err != nil {
			r.problemf("serve-miss key %d: analyze: %v", i, err)
			continue
		}
		t3 := time.Now()
		pres, err := power.Evaluate(res.Device, prob, rep)
		if err != nil {
			r.problemf("serve-miss key %d: evaluate: %v", i, err)
			continue
		}
		t4 := time.Now()
		if math.Float64bits(pres.AvgPowerW) != math.Float64bits(got.SimulatedW) {
			r.problemf("serve-miss key %d: re-executed layers give %v W, served %v W", i, pres.AvgPowerW, got.SimulatedW)
		}
		billed["patterns.apply"] += t1.Sub(t0)
		billed["activity.scan"] += t2.Sub(t1)
		billed["activity.walk"] += t3.Sub(t2)
		billed["power.evaluate"] += t4.Sub(t3)
		if root := roots[i]; root != nil && len(root.children) == 1 && len(root.children[0].children) == 1 {
			root.children[0].children[0].billed += t4.Sub(t0)
		} else {
			r.problemf("serve-miss key %d: request trace is not client→handler→core", i)
		}
	}
	r.attempted += int64(len(bodies))
	return billed
}

// layerMeans stores each layer's self time as milliseconds per traced
// request, and the share of the requests' summed latency the self
// times account for.
func layerMeans(r *report, self map[string]time.Duration, total time.Duration, requests int) {
	var sum time.Duration
	for layer, d := range self {
		r.layers[layer+"_ms"] = float64(d) / 1e6 / float64(requests)
		sum += d
	}
	r.layers["trace.coverage"] = float64(sum) / float64(total)
}
