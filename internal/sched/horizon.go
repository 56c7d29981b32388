package sched

import (
	"math"
	"sort"
	"sync"
)

// DefaultHorizonWindowS is the projection window PredictiveHorizon uses
// when constructed from the registry (All, ByName). CLI surfaces
// override it (fleetsim/fleetctl -window).
const DefaultHorizonWindowS = 30

// horizonEpsW absorbs float rounding when a projected peak sits exactly
// on the cap.
const horizonEpsW = 1e-9

// PredictiveHorizon packs jobs against the power cap *before* it is
// breached: at each admission it projects the fleet's concurrent
// dynamic power demand over the next WindowS seconds from every
// instance's committed queue (Fleet.Timelines) plus the arriving job,
// and only considers placements whose projected peak stays inside the
// cap's dynamic headroom. Among cap-safe placements it picks the
// earliest completion, so — unlike PowerPack, which serializes all hot
// jobs onto one affinity queue regardless of headroom — hot jobs run
// concurrently whenever the projection shows room and stagger in time
// (deferred behind committed work) exactly when they would collide.
// The result is PowerPack's throttle avoidance at a far smaller
// makespan premium.
//
// When every placement breaches within the window, the policy minimizes
// the projected overage (ties toward earliest completion) — the least
// bad breach rather than a blind pick. A zero window, an uncapped
// fleet, or a run without timeline context all degrade to PowerPack,
// whose own uncapped fallback is EarliestCompletion.
type PredictiveHorizon struct {
	// WindowS is the projection horizon in seconds. Zero disables the
	// projection and degrades the policy to PowerPack.
	WindowS float64
}

// Name implements Policy.
func (PredictiveHorizon) Name() string { return "PredictiveHorizon" }

// HorizonWindowS implements HorizonAware: the simulator builds
// Fleet.Timelines only when this is positive.
func (p PredictiveHorizon) HorizonWindowS() float64 { return p.WindowS }

// Place implements Policy.
func (p PredictiveHorizon) Place(job Job, cands []Candidate, fleet Fleet) int {
	if p.WindowS <= 0 || fleet.PowerCapW <= 0 || fleet.Timelines == nil {
		return PowerPack{}.Place(job, cands, fleet)
	}
	headroomW := fleet.PowerCapW - fleet.IdleSumW

	s := horizonPool.Get().(*horizonScratch)
	defer horizonPool.Put(s)
	s.commit(fleet.Timelines, p.WindowS, fleet.TickS)

	bestSafe, bestUnsafe := -1, -1
	bestSafeEta := math.Inf(1)
	bestOver, bestUnsafeEta := math.Inf(1), math.Inf(1)
	for i, c := range cands {
		// The job starts when the candidate's committed work drains.
		peak := s.peakWith(s.drainS[c.Index], float64(job.Iterations)*c.IterTimeS, c.PowerW-c.IdleW,
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

// breakpoint is a step in projected dynamic demand: dw watts start
// (dw > 0) or stop (dw < 0) at time t.
type breakpoint struct{ t, dw float64 }

// appendBreakpoints appends the steps of one segment running at dw
// watts for dur seconds from start, as seen through [0, windowS):
// nothing if it is empty, draws nothing or starts at or past the
// window, and no stop step if it ends past the window.
func appendBreakpoints(bps []breakpoint, start, dur, dw, windowS float64) []breakpoint {
	if dur <= 0 || dw == 0 || start >= windowS {
		return bps
	}
	bps = append(bps, breakpoint{start, dw})
	if end := start + dur; end < windowS {
		bps = append(bps, breakpoint{end, -dw})
	}
	return bps
}

// horizonScratch is one admission's projection state. Place borrows it
// from horizonPool, so concurrent engines never share one.
type horizonScratch struct {
	// merged is every committed breakpoint inside the window in time
	// order, ties in fleet order.
	merged []breakpoint
	// drainS[i] is when instance i's committed work drains: the start
	// of a job placed on it.
	drainS []float64

	raw   []breakpoint // per-instance breakpoints, concatenated in fleet order
	next  []int        // merge cursor into instance i's run of raw
	ends  []int        // end of instance i's run of raw
	extra []breakpoint // the arriving job's breakpoints
}

var horizonPool = sync.Pool{New: func() any { return new(horizonScratch) }}

// commit lays out the committed demand once per admission. Every
// segment is padded by padS (the integration tick) so the projection
// upper-bounds the simulator's tick-granular start times; demand
// beyond the window is deliberately invisible, which is what makes the
// policy a horizon rather than an exact solver.
//
// Each instance's breakpoints are already in time order, so merging
// them with ties going to the lower instance yields exactly the order
// a stable sort of their fleet-order concatenation would. A negative
// segment duration breaks that order; the stable sort is then run
// instead.
func (s *horizonScratch) commit(timelines [][]PowerSegment, windowS, padS float64) {
	s.raw, s.next, s.ends, s.drainS = s.raw[:0], s.next[:0], s.ends[:0], s.drainS[:0]
	sorted := true
	for _, tl := range timelines {
		first := len(s.raw)
		t := 0.0
		for _, seg := range tl {
			s.raw = appendBreakpoints(s.raw, t, seg.DurationS+padS, seg.DynPowerW, windowS)
			t += seg.DurationS + padS
		}
		for k := first + 1; k < len(s.raw); k++ {
			sorted = sorted && s.raw[k-1].t <= s.raw[k].t
		}
		s.next = append(s.next, first)
		s.ends = append(s.ends, len(s.raw))
		s.drainS = append(s.drainS, t)
	}

	s.merged = s.merged[:0]
	if !sorted {
		s.merged = append(s.merged, s.raw...)
		sort.SliceStable(s.merged, func(a, b int) bool { return s.merged[a].t < s.merged[b].t })
		return
	}
	for {
		best := -1
		for i, k := range s.next {
			if k < s.ends[i] && (best < 0 || s.raw[k].t < s.raw[s.next[best]].t) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		s.merged = append(s.merged, s.raw[s.next[best]])
		s.next[best]++
	}
}

// peakWith returns the peak concurrent dynamic demand within
// [0, windowS) of the committed breakpoints plus one extra segment —
// the job under consideration — running at dynW watts for durS
// seconds (padded by padS) from startS. It sweeps the merged list
// once, placing the extra breakpoints after any committed ones at the
// same time, so demand is summed in the same order a stable sort of
// all breakpoints would give and every partial sum rounds the same.
func (s *horizonScratch) peakWith(startS, durS, dynW, windowS, padS float64) float64 {
	s.extra = appendBreakpoints(s.extra[:0], startS, durS+padS, dynW, windowS)
	m, x := s.merged, s.extra
	var cur, peak float64
	for i, j := 0, 0; i < len(m) || j < len(x); {
		var t float64
		if j < len(x) && (i == len(m) || x[j].t < m[i].t) {
			t = x[j].t
		} else {
			t = m[i].t
		}
		for i < len(m) && m[i].t == t {
			cur += m[i].dw
			i++
		}
		for j < len(x) && x[j].t == t {
			cur += x[j].dw
			j++
		}
		if cur > peak {
			peak = cur
		}
	}
	return peak
}
