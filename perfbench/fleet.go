package main

// fleet-replay: fleet.Synthetic traces of 1024 jobs on
// 4×A100-PCIe-40GB under a 310 W cap, each replayed under every sched
// policy, with the ModelOracle memo warmed in set-up.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/device"
	"repro/internal/fleet"
	"repro/internal/sched"
)

const (
	fleetJobs = 1024
	fleetCapW = 310
	// fleetTraces is how many traces, each from its own seed derived
	// from the workload seed, one pass replays. PredictiveHorizon's cost
	// depends on how deep a trace's queues get, which varies by ±10%
	// from one seed to the next; four traces average that out.
	fleetTraces = 4
	// tracedFleetPasses is the fixed work of a traced run.
	tracedFleetPasses = 3
)

func fleetDevices() []*device.Device {
	return []*device.Device{device.A100PCIe(), device.A100PCIe(), device.A100PCIe(), device.A100PCIe()}
}

// timedOracle times Resolve. Embedding keeps Stats, which the fleet
// report type-asserts for its oracle section.
type timedOracle struct {
	*fleet.ModelOracle
	d *time.Duration
}

func (o timedOracle) Resolve(ctx context.Context, keys []fleet.OpKey) ([]fleet.OperatingPoint, error) {
	start := time.Now()
	defer func() { *o.d += time.Since(start) }()
	return o.ModelOracle.Resolve(ctx, keys)
}

// timedPolicy times Place and counts its calls.
type timedPolicy struct {
	sched.Policy
	d     *time.Duration
	calls *int64
}

func (p timedPolicy) Place(job sched.Job, cands []sched.Candidate, f sched.Fleet) int {
	start := time.Now()
	defer func() { *p.d += time.Since(start); *p.calls++ }()
	return p.Policy.Place(job, cands, f)
}

// timedHorizonPolicy keeps sched.HorizonAware visible through the
// wrapper: the engine builds the projection timelines only for policies
// that implement it.
type timedHorizonPolicy struct {
	timedPolicy
	sched.HorizonAware
}

func wrapPolicy(p sched.Policy, d *time.Duration, calls *int64) sched.Policy {
	tp := timedPolicy{p, d, calls}
	if ha, ok := p.(sched.HorizonAware); ok {
		return timedHorizonPolicy{tp, ha}
	}
	return tp
}

type fleetEnv struct {
	traces []*fleet.Trace
	oracle *fleet.ModelOracle
}

// traceSeed is the fleet.Synthetic seed of trace k of a workload seed.
func traceSeed(seed uint64, k int) uint64 { return seed*fleetTraces + uint64(k) }

func runFleet(opts options) (*report, error) {
	r := &report{}
	ctx := context.Background()
	env, err := timeSetups(r, func() (*fleetEnv, error) {
		env := &fleetEnv{oracle: fleet.NewModelOracle()}
		for k := 0; k < fleetTraces; k++ {
			tr, err := fleet.Synthetic(fleet.SyntheticConfig{Jobs: fleetJobs, Seed: traceSeed(opts.seed, k)})
			if err != nil {
				return nil, err
			}
			// One replay resolves every operating point into the memo.
			if _, err := fleet.Run(ctx, fleet.Config{Devices: fleetDevices(), Oracle: env.oracle, PowerCapW: fleetCapW}, tr); err != nil {
				return nil, fmt.Errorf("warm oracle: %w", err)
			}
			env.traces = append(env.traces, tr)
		}
		return env, nil
	}, func(*fleetEnv) {})
	if err != nil {
		return nil, err
	}
	policies := sched.All()
	lookups0 := env.oracle.Stats().Lookups

	// Wall times per policy, for the traced run's layers.
	replay := map[string]time.Duration{}
	place := map[string]time.Duration{}
	resolve := map[string]time.Duration{}
	var calls int64
	digests := map[string]string{} // policy/trace -> report digest
	var wallS float64
	start := time.Now()
	passes := 0
	for ; ; passes++ {
		if opts.trace && passes == tracedFleetPasses {
			break
		}
		if !opts.trace && passes >= 3 && time.Since(start).Seconds() >= opts.seconds {
			break
		}
		var passCPU time.Duration
		var passMS []float64
		for _, p := range policies {
			name := p.Name()
			var opCPU time.Duration
			for k, tr := range env.traces {
				cfg := fleet.Config{Devices: fleetDevices(), Oracle: env.oracle, PowerCapW: fleetCapW, Policy: p}
				var dPlace, dResolve time.Duration
				if opts.trace {
					cfg.Policy = wrapPolicy(p, &dPlace, &calls)
					cfg.Oracle = timedOracle{env.oracle, &dResolve}
				}
				r.attempted++
				c0, t0 := cpuNow(), time.Now()
				rep, err := fleet.Run(ctx, cfg, tr)
				d := time.Since(t0)
				opCPU += cpuNow() - c0
				wallS += d.Seconds()
				replay[name] += d
				place[name] += dPlace
				resolve[name] += dResolve
				if err != nil {
					r.failed++
					r.problemf("fleet %s trace %d: %v", name, k, err)
					continue
				}
				r.items += int64(rep.Jobs)
				if rep.Completed != rep.Jobs {
					r.problemf("fleet %s trace %d: %d of %d jobs completed", name, k, rep.Completed, rep.Jobs)
				}
				dg, err := reportDigest(rep)
				if err != nil {
					r.problemf("fleet %s trace %d: %v", name, k, err)
					continue
				}
				id := fmt.Sprintf("%s/%d", name, k)
				if prev, ok := digests[id]; !ok {
					digests[id] = dg
				} else if prev != dg {
					r.problemf("fleet %s trace %d: pass %d report differs from pass 0", name, k, passes)
				}
			}
			passCPU += opCPU
			passMS = append(passMS, float64(opCPU)/1e6)
		}
		r.passS = append(r.passS, passCPU.Seconds())
		r.busyS += passCPU.Seconds()
		r.opMS = append(r.opMS, passMS...)
		r.tailMS = append(r.tailMS, percentile(passMS, 99))
	}
	r.heapMB = liveHeapMB()
	r.notef("fleet: %d passes, median %.3f CPU s, mean %.3f wall s", passes, median(r.passS), wallS/float64(passes))

	h := sha256.New()
	for _, p := range policies {
		for k := range env.traces {
			id := fmt.Sprintf("%s/%d", p.Name(), k)
			fmt.Fprintf(h, "%s %s\n", id, digests[id])
			r.notef("fleet %-20s report sha256 %s", id, digests[id])
		}
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	st := env.oracle.Stats()
	if opts.trace {
		n := float64(passes)
		r.layers = map[string]float64{
			"sched.place_calls":     float64(calls) / n,
			"fleet.oracle.lookups":  float64(st.Lookups-lookups0) / n,
			"fleet.oracle.distinct": float64(st.Distinct),
		}
		var self, total, res time.Duration
		for _, p := range policies {
			name := p.Name()
			engine := replay[name] - place[name] - resolve[name]
			r.layers["fleet.replay_s."+name] = replay[name].Seconds() / n
			r.layers["sched.place_s."+name] = place[name].Seconds() / n
			r.layers["fleet.engine_s."+name] = engine.Seconds() / n
			res += resolve[name]
			self += engine + place[name] + resolve[name]
			total += replay[name]
		}
		r.layers["fleet.oracle_resolve_s"] = res.Seconds() / n
		r.layers["trace.coverage"] = self.Seconds() / total.Seconds()
	}
	return r, nil
}

// reportDigest hashes a report's JSON with the oracle section cleared:
// the oracle's lookup counter is cumulative over the shared memo, so it
// grows from one replay to the next while everything else repeats.
func reportDigest(rep *fleet.Report) (string, error) {
	cp := *rep
	cp.Oracle = fleet.OracleStats{}
	var buf bytes.Buffer
	if err := cp.WriteJSON(&buf); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}
