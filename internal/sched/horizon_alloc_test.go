//go:build !race

// The race detector makes sync.Pool drop items at random, so Place's
// allocation count is only steady without it.

package sched

import (
	"math/rand"
	"testing"
)

// TestPredictiveHorizonPlaceAllocs: once the pooled scratch has grown
// to the fleet's size, an admission allocates nothing, however many
// candidates it weighs.
func TestPredictiveHorizonPlaceAllocs(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	fleet := Fleet{
		PowerCapW: 55*n + 400,
		IdleSumW:  55 * n,
		Instances: n,
		TickS:     1e-3,
		Timelines: randomTimelines(rng, n, 8, false),
	}
	cands := make([]Candidate, n)
	for i := range cands {
		cands[i] = cand(i, float64(i)*0.25, 1e-3, 150)
	}
	job := Job{ID: "j", Iterations: 4000}
	p := PredictiveHorizon{WindowS: 30}
	few := testing.AllocsPerRun(200, func() { p.Place(job, cands[:2], fleet) })
	all := testing.AllocsPerRun(200, func() { p.Place(job, cands, fleet) })
	if few != 0 || all != 0 {
		t.Errorf("Place allocates %v per admission with 2 candidates, %v with %d; want 0", few, all, n)
	}
}
