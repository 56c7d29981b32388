package sched

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// ProjectedPeakW is the reference projection the merged sweep in
// horizon.go must reproduce bit for bit. It returns the peak concurrent
// dynamic power demand within [0, windowS) implied by the committed
// per-instance timelines plus one extra segment — the job under
// consideration — running at extraDynW watts for extraDurS seconds
// starting at extraStartS. Every segment is padded by padS, and the
// sweep is a stable sort over all breakpoints in fleet order with the
// extra segment's last.
func ProjectedPeakW(timelines [][]PowerSegment, extraStartS, extraDurS, extraDynW, windowS, padS float64) float64 {
	type delta struct{ t, dw float64 }
	var deltas []delta
	add := func(start, dur, dw float64) {
		if dur <= 0 || dw == 0 || start >= windowS {
			return
		}
		deltas = append(deltas, delta{start, dw})
		if end := start + dur; end < windowS {
			deltas = append(deltas, delta{end, -dw})
		}
	}
	for _, tl := range timelines {
		t := 0.0
		for _, seg := range tl {
			add(t, seg.DurationS+padS, seg.DynPowerW)
			t += seg.DurationS + padS
		}
	}
	add(extraStartS, extraDurS+padS, extraDynW)

	sort.SliceStable(deltas, func(a, b int) bool { return deltas[a].t < deltas[b].t })
	var cur, peak float64
	for i := 0; i < len(deltas); {
		t := deltas[i].t
		for i < len(deltas) && deltas[i].t == t {
			cur += deltas[i].dw
			i++
		}
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

// referencePlace is PredictiveHorizon.Place over the reference
// projection: every candidate re-projects the whole fleet.
func referencePlace(p PredictiveHorizon, job Job, cands []Candidate, fleet Fleet) int {
	if p.WindowS <= 0 || fleet.PowerCapW <= 0 || fleet.Timelines == nil {
		return PowerPack{}.Place(job, cands, fleet)
	}
	headroomW := fleet.PowerCapW - fleet.IdleSumW
	bestSafe, bestUnsafe := -1, -1
	bestSafeEta := math.Inf(1)
	bestOver, bestUnsafeEta := math.Inf(1), math.Inf(1)
	for i, c := range cands {
		start := 0.0
		for _, seg := range fleet.Timelines[c.Index] {
			start += seg.DurationS + fleet.TickS
		}
		peak := ProjectedPeakW(fleet.Timelines,
			start, float64(job.Iterations)*c.IterTimeS, c.PowerW-c.IdleW,
			p.WindowS, fleet.TickS)
		over := peak - headroomW
		e := eta(job, c)
		if over <= horizonEpsW {
			if e < bestSafeEta {
				bestSafe, bestSafeEta = i, e
			}
		} else if over < bestOver || (over == bestOver && e < bestUnsafeEta) {
			bestUnsafe, bestOver, bestUnsafeEta = i, over, e
		}
	}
	if bestSafe >= 0 {
		return bestSafe
	}
	return bestUnsafe
}

// mergedPeakW is the production projection with ProjectedPeakW's
// signature: one commit of the timelines, one sweep with the extra.
func mergedPeakW(timelines [][]PowerSegment, extraStartS, extraDurS, extraDynW, windowS, padS float64) float64 {
	var s horizonScratch
	s.commit(timelines, windowS, padS)
	return s.peakWith(extraStartS, extraDurS, extraDynW, windowS, padS)
}

var peakImpls = []struct {
	name string
	fn   func(timelines [][]PowerSegment, extraStartS, extraDurS, extraDynW, windowS, padS float64) float64
}{
	{"reference", ProjectedPeakW},
	{"merged", mergedPeakW},
}

func TestProjectedPeakWDemandCurve(t *testing.T) {
	// Two instances with committed work, plus a candidate segment:
	//   inst 0: 100 W for [0,2), then 50 W for [2,5)
	//   inst 1:  60 W for [0,4)
	//   extra:   30 W for [1,3)
	// Demand: 160 on [0,1), 190 on [1,2), 140 on [2,3), 110 on [3,4),
	// 50 on [4,5). Peak 190.
	timelines := [][]PowerSegment{
		{{DurationS: 2, DynPowerW: 100}, {DurationS: 3, DynPowerW: 50}},
		{{DurationS: 4, DynPowerW: 60}},
	}
	for _, impl := range peakImpls {
		peakW := impl.fn
		if got := peakW(timelines, 1, 2, 30, 10, 0); got != 190 {
			t.Errorf("%s: peak = %v, want 190", impl.name, got)
		}
		// A shorter window truncates the sweep: demand past the window
		// is invisible, but segments straddling it still count.
		if got := peakW(timelines, 1, 2, 30, 1.5, 0); got != 190 {
			t.Errorf("%s: peak within [0,1.5) = %v, want 190", impl.name, got)
		}
		if got := peakW(timelines, 1, 2, 30, 0.5, 0); got != 160 {
			t.Errorf("%s: peak within [0,0.5) = %v, want 160", impl.name, got)
		}
		// An extra segment starting at or past the window contributes
		// nothing: only the committed 160 W on [0,1) remains visible.
		if got := peakW(timelines, 2, 10, 500, 1.5, 0); got != 160 {
			t.Errorf("%s: out-of-window extra changed peak to %v, want 160", impl.name, got)
		}
		// No timelines, no extra draw: zero demand.
		if got := peakW(nil, 0, 0, 0, 10, 0); got != 0 {
			t.Errorf("%s: empty projection = %v, want 0", impl.name, got)
		}
	}
}

func TestProjectedPeakWTickPadding(t *testing.T) {
	// A committed segment ending exactly when the extra one starts: with
	// no padding they never overlap, with padding the boundary tick
	// double-counts — the conservative upper bound the simulator's
	// tick-granular completion detection requires.
	timelines := [][]PowerSegment{{{DurationS: 1, DynPowerW: 100}}}
	for _, impl := range peakImpls {
		if got := impl.fn(timelines, 1, 1, 50, 10, 0); got != 100 {
			t.Errorf("%s: unpadded peak = %v, want 100", impl.name, got)
		}
		if got := impl.fn(timelines, 1, 1, 50, 10, 0.5); got != 150 {
			t.Errorf("%s: padded peak = %v, want 150", impl.name, got)
		}
	}
}

// randomTimelines draws n committed timelines of up to maxSegs
// segments each. Durations are multiples of 0.25 s, so unpadded
// breakpoints often coincide across instances and with the window
// edge; about one draw in eight is zero watts, and most are not exact
// binary fractions, so any change in summation order changes the
// rounding. With negative set, about one segment in eight has a
// negative duration, which puts its instance's breakpoints out of
// time order.
func randomTimelines(rng *rand.Rand, n, maxSegs int, negative bool) [][]PowerSegment {
	tls := make([][]PowerSegment, n)
	for i := range tls {
		for k := rng.Intn(maxSegs + 1); k > 0; k-- {
			seg := PowerSegment{
				DurationS: float64(rng.Intn(16)) * 0.25,
				DynPowerW: float64(rng.Intn(8)) * (10 + rng.Float64()*20),
			}
			if negative && rng.Intn(8) == 0 {
				seg.DurationS = -0.25 - seg.DurationS
			}
			tls[i] = append(tls[i], seg)
		}
	}
	return tls
}

// TestPredictiveHorizonMatchesReference checks the merged sweep against
// the reference projection over seeded random fleets: every peak must
// have the same bits, and Place must pick the same candidate. One
// scratch serves every fleet, as a pooled one does across admissions.
func TestPredictiveHorizonMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name               string
		instances, maxSegs int
		padS               float64
		negative           bool
	}{
		{"ties unpadded", 4, 6, 0, false},
		{"tick padded", 4, 6, 1e-3, false},
		{"wide fleet", 16, 3, 1e-3, false},
		{"negative durations unpadded", 3, 6, 0, true},
		{"negative durations padded", 4, 6, 1e-3, true},
		{"idle instances", 4, 0, 1e-3, false},
		{"no instances", 0, 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(tc.name))))
			var s horizonScratch
			for trial := 0; trial < 300; trial++ {
				tls := randomTimelines(rng, tc.instances, tc.maxSegs, tc.negative)
				windowS := float64(1+rng.Intn(40)) * 0.25
				s.commit(tls, windowS, tc.padS)

				// Extras start at each instance's drain time, inside the
				// window, exactly at its edge and beyond it.
				var starts []float64
				for i, tl := range tls {
					start := 0.0
					for _, seg := range tl {
						start += seg.DurationS + tc.padS
					}
					if math.Float64bits(s.drainS[i]) != math.Float64bits(start) {
						t.Fatalf("trial %d: instance %d drains at %v, want %v", trial, i, s.drainS[i], start)
					}
					starts = append(starts, start)
				}
				starts = append(starts, 0, windowS, windowS+0.25, float64(rng.Intn(int(4*windowS)))*0.25)
				for _, start := range starts {
					durS := float64(rng.Intn(12)) * 0.25
					dynW := float64(rng.Intn(4)) * (10 + rng.Float64()*40)
					want := ProjectedPeakW(tls, start, durS, dynW, windowS, tc.padS)
					got := s.peakWith(start, durS, dynW, windowS, tc.padS)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("trial %d: peak with extra at %v for %v s, %v W = %v, reference %v\ntimelines %v, window %v",
							trial, start, durS, dynW, got, want, tls, windowS)
					}
				}

				if tc.instances == 0 {
					continue
				}
				fleet := Fleet{
					IdleSumW:  55 * float64(tc.instances),
					Instances: tc.instances,
					TickS:     tc.padS,
					Timelines: tls,
				}
				fleet.PowerCapW = fleet.IdleSumW + float64(rng.Intn(300))
				var cands []Candidate
				for i := range tls {
					if rng.Intn(4) > 0 {
						cands = append(cands, cand(i, float64(rng.Intn(40))*0.25, 1e-3, 55+float64(rng.Intn(150))))
					}
				}
				if len(cands) == 0 {
					cands = append(cands, cand(0, 0, 1e-3, 120))
				}
				job := Job{ID: "j", Iterations: 250 * (1 + rng.Intn(16))}
				p := PredictiveHorizon{WindowS: windowS}
				if got, want := p.Place(job, cands, fleet), referencePlace(p, job, cands, fleet); got != want {
					t.Fatalf("trial %d: Place picked %d, reference %d", trial, got, want)
				}
			}
		})
	}
}

// TestProjectedPeakWOutOfOrder pins the stable-sort fallback: a
// negative duration moves instance 0's later breakpoints before its
// earlier ones, so a plain merge would sum them in the wrong order.
func TestProjectedPeakWOutOfOrder(t *testing.T) {
	timelines := [][]PowerSegment{
		{{DurationS: 5, DynPowerW: 100.1}, {DurationS: -3, DynPowerW: 40}, {DurationS: 2, DynPowerW: 50.3}},
		{{DurationS: 1, DynPowerW: 60.7}, {DurationS: 3, DynPowerW: 0.1}},
	}
	for _, start := range []float64{0, 1, 2, 3, 4, 6} {
		want := ProjectedPeakW(timelines, start, 2, 30.3, 10, 0)
		got := mergedPeakW(timelines, start, 2, 30.3, 10, 0)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("extra at %v: peak %v, reference %v", start, got, want)
		}
	}
}

// horizonFleet is a two-instance capped fleet where instance 0 has one
// committed hot job (100 W dynamic for 10 s) and instance 1 is idle.
// Idle floor 110 W, cap 260 W: dynamic headroom 150 W.
func horizonFleet() Fleet {
	return Fleet{
		PowerCapW: 260,
		IdleSumW:  110,
		Instances: 2,
		TickS:     1e-3,
		Timelines: [][]PowerSegment{
			{{DurationS: 10, DynPowerW: 100}},
			nil,
		},
	}
}

func TestPredictiveHorizonDefersBreachingJob(t *testing.T) {
	fleet := horizonFleet()
	p := PredictiveHorizon{WindowS: 30}

	// A hot job (100 W dynamic, 10 s service) on the idle instance would
	// run concurrently with instance 0's committed work: 200 W projected
	// dynamic peak against 150 W headroom. The policy must defer it
	// behind the committed job even though the idle instance finishes it
	// 10 s sooner.
	hot := Job{ID: "hot", Iterations: 10000}
	cands := []Candidate{
		cand(0, 10, 1e-3, 155), // dyn 100, starts after the backlog
		cand(1, 0, 1e-3, 155),  // dyn 100, starts now — breaches
	}
	if got := p.Place(hot, cands, fleet); got != 0 {
		t.Errorf("hot job placed on %d, want deferred behind instance 0", got)
	}
	// EarliestCompletion takes the breaching placement, confirming the
	// deferral is the horizon's doing.
	if got := (EarliestCompletion{}).Place(hot, cands, fleet); got != 1 {
		t.Errorf("EarliestCompletion placed on %d, want 1", got)
	}

	// A cheap job (40 W dynamic) fits beside the committed work: 140 W
	// projected peak is inside headroom, so it takes the idle instance
	// and the earlier completion.
	cheap := []Candidate{cand(0, 10, 1e-3, 95), cand(1, 0, 1e-3, 95)}
	if got := p.Place(hot, cheap, fleet); got != 1 {
		t.Errorf("cheap job placed on %d, want the idle instance 1", got)
	}
}

func TestPredictiveHorizonMinimizesOverageWhenAllBreach(t *testing.T) {
	// Shrink headroom to 90 W so even a lone 100 W job breaches wherever
	// it goes. Deferring behind instance 0 keeps the projected peak at
	// 100 W (overage 10); running concurrently peaks at 200 W (overage
	// 110). The policy takes the least-bad breach.
	fleet := horizonFleet()
	fleet.PowerCapW = 200
	hot := Job{ID: "hot", Iterations: 10000}
	cands := []Candidate{cand(0, 10, 1e-3, 155), cand(1, 0, 1e-3, 155)}
	if got := (PredictiveHorizon{WindowS: 30}).Place(hot, cands, fleet); got != 0 {
		t.Errorf("placed on %d, want the minimal-overage instance 0", got)
	}
}

func TestPredictiveHorizonBeyondWindowIsInvisible(t *testing.T) {
	// With a 5 s window, the deferred start (t = 10 s) of the hot job
	// falls outside the projection, so only the concurrent placement's
	// breach is visible — and the committed segment alone already fills
	// the window, so deferral projects a clean 100 W peak. A long window
	// sees both; a short one must still defer.
	fleet := horizonFleet()
	hot := Job{ID: "hot", Iterations: 10000}
	cands := []Candidate{cand(0, 10, 1e-3, 155), cand(1, 0, 1e-3, 155)}
	if got := (PredictiveHorizon{WindowS: 5}).Place(hot, cands, fleet); got != 0 {
		t.Errorf("short-window placement on %d, want 0", got)
	}
}

func TestPredictiveHorizonDegradesToPowerPack(t *testing.T) {
	job := Job{ID: "hot", Iterations: 1000}
	hotQueue := cand(0, 1.0, 1e-3, 85)
	hotQueue.QueueDynEnergyJ = 30.0
	empty := cand(1, 0, 1e-3, 85)
	cands := []Candidate{hotQueue, empty}

	capped := Fleet{PowerCapW: 300, IdleSumW: 110, Instances: 2}
	for _, tc := range []struct {
		name   string
		policy PredictiveHorizon
		fleet  Fleet
	}{
		{"zero window", PredictiveHorizon{}, withTimelines(capped)},
		{"nil timelines", PredictiveHorizon{WindowS: 30}, capped},
		{"uncapped", PredictiveHorizon{WindowS: 30}, withTimelines(Fleet{Instances: 2})},
	} {
		want := (PowerPack{}).Place(job, cands, tc.fleet)
		if got := tc.policy.Place(job, cands, tc.fleet); got != want {
			t.Errorf("%s: placed on %d, want PowerPack's %d", tc.name, got, want)
		}
	}

	// The degrade is real PowerPack behaviour, not a coincidence: under
	// a cap the hot job joins the hot queue (affinity), which
	// EarliestCompletion would never do.
	if got := (PredictiveHorizon{}).Place(job, cands, withTimelines(capped)); got != 0 {
		t.Errorf("zero-window capped placement on %d, want PowerPack's affinity pick 0", got)
	}
}

func withTimelines(f Fleet) Fleet {
	f.Timelines = make([][]PowerSegment, f.Instances)
	return f
}

func TestPredictiveHorizonIsHorizonAware(t *testing.T) {
	var p Policy = PredictiveHorizon{WindowS: 12.5}
	ha, ok := p.(HorizonAware)
	if !ok {
		t.Fatal("PredictiveHorizon must implement HorizonAware")
	}
	if got := ha.HorizonWindowS(); got != 12.5 {
		t.Errorf("HorizonWindowS = %v, want 12.5", got)
	}
	if w := (PredictiveHorizon{}).HorizonWindowS(); w > 0 {
		t.Errorf("zero-value window = %v, want non-positive", w)
	}
	// No other built-in policy asks for timelines.
	for _, pol := range All() {
		if _, ok := pol.(HorizonAware); ok && pol.Name() != "PredictiveHorizon" {
			t.Errorf("%s unexpectedly implements HorizonAware", pol.Name())
		}
	}
}
