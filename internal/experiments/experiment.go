// Package experiments reproduces the paper's evaluation (§III–§IV):
// every figure is an Experiment — a sweep of input patterns across the
// four datatype setups — executed by a parallel runner that follows the
// paper's methodology: same pattern for A and B from different seeds, B
// transposed unless the experiment says otherwise, C zeroed, results
// averaged over multiple seeds on one pinned VM instance, power sampled
// DCGM-style at 100 ms with the first 500 ms trimmed.
package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/activity"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/power"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config holds the harness-wide experiment parameters.
type Config struct {
	Device *device.Device
	// Size is the square matrix dimension (paper: 2048; 512 for the
	// RTX 6000 in Fig. 7).
	Size int
	// DTypes are the datatype setups to sweep (paper: all four).
	DTypes []matrix.DType
	// Seeds is the number of independent repetitions (paper: 10).
	Seeds int
	// SampleOutputs bounds the sampled activity terms per run.
	SampleOutputs int
	// VMInstance pins the process-variation offset (§III).
	VMInstance uint64
	// Workers bounds runner parallelism; 0 means GOMAXPROCS.
	Workers int
	// Tile overrides the CUTLASS-style threadblock tile (zero value =
	// per-dtype default). Reduced-scale tests use smaller tiles so the
	// simulated device runs at realistic utilization.
	Tile kernels.TileConfig
}

// Default returns the paper's configuration: A100 PCIe, 2048², all four
// datatypes, 10 seeds.
func Default() Config {
	return Config{
		Device:        device.A100PCIe(),
		Size:          2048,
		DTypes:        append([]matrix.DType(nil), matrix.DTypes...),
		Seeds:         10,
		SampleOutputs: 256,
		VMInstance:    1,
	}
}

// Quick returns a reduced configuration for tests and fast sweeps.
func Quick() Config {
	cfg := Default()
	cfg.Size = 192
	cfg.Seeds = 3
	cfg.SampleOutputs = 96
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Device == nil {
		c.Device = device.A100PCIe()
	}
	if c.Size <= 0 {
		c.Size = 2048
	}
	if len(c.DTypes) == 0 {
		c.DTypes = append([]matrix.DType(nil), matrix.DTypes...)
	}
	if c.Seeds <= 0 {
		c.Seeds = 10
	}
	if c.SampleOutputs <= 0 {
		c.SampleOutputs = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Point is one sweep coordinate of an experiment.
type Point struct {
	// Label names the coordinate in tables (e.g. "50%", "std=210").
	Label string
	// X is the numeric coordinate for trend analysis.
	X float64
	// Pattern builds the input pattern for a datatype (the paper uses
	// σ=210 for FP and σ=25 for INT8, so patterns are dtype-aware).
	Pattern func(dt matrix.DType) patterns.Pattern
	// TransposeB overrides the paper's default of consuming Bᵀ;
	// Fig. 5a sets this to false.
	TransposeB *bool
}

func (p Point) transposeB() bool {
	if p.TransposeB == nil {
		return true
	}
	return *p.TransposeB
}

// Experiment is one figure panel of the paper.
type Experiment struct {
	// ID matches the DESIGN.md index, e.g. "fig5b".
	ID string
	// Title is the paper's panel description.
	Title string
	// Takeaway is the paper's numbered finding exercised by the panel.
	Takeaway string
	// XLabel describes Point.X.
	XLabel string
	Points []Point
}

// Cell is the aggregated measurement for one (datatype, point).
type Cell struct {
	Label string
	X     float64

	PowerW    float64 // mean over seeds (paper's reported quantity)
	PowerErrW float64 // standard error over seeds

	IterTimeS      float64
	IterTimeErrS   float64
	EnergyPerIterJ float64

	MeanAlignment float64 // Fig. 8 x-axis (bit alignment)
	MeanHamming   float64 // Fig. 8 x-axis (Hamming weight of A)

	BusyFrac  float64
	Throttled bool
}

// FigureResult is the full reproduction of one figure panel.
type FigureResult struct {
	Experiment Experiment
	Config     Config
	// Series maps each datatype to its per-point cells (same order as
	// Experiment.Points).
	Series map[matrix.DType][]Cell
}

// runOutcome is one (dtype, point, seed) measurement.
type runOutcome struct {
	powerW    float64
	iterTimeS float64
	energyJ   float64
	alignment float64
	hamming   float64
	busyFrac  float64
	throttled bool
}

// iterationsFor mirrors the paper's §III counts: 20k iterations for
// FP16-T, 10k for the other datatypes.
func iterationsFor(dt matrix.DType) int {
	if dt == matrix.FP16T {
		return 20000
	}
	return 10000
}

// analysis is the device-independent half of one (dtype, point, seed)
// measurement: the GEMM problem, its switching-activity report, and the
// seed of its telemetry noise. Every device evaluated at the same size
// shares it.
type analysis struct {
	prob      *kernels.Problem
	rep       *activity.Report
	noiseSeed uint64
}

// analyze runs the device-independent half of a measurement. Base
// matrices come from the per-run cache: the generation streams depend
// on (experiment, seed, side) but not on the point, so every point's
// transform variant derives from the same underlying generation; A and
// B always differ (§III). When the point consumes Bᵀ (the paper's
// default), the generated matrix is handed to the kernel as transposed
// storage instead of materializing the transpose — bit-identical
// results, no transpose pass, and the operand's column-stream
// statistics are the base's row-stream statistics.
func analyze(cfg Config, exp Experiment, pt Point, dt matrix.DType, seed int, cache *baseCache) (analysis, error) {
	pat := pt.Pattern(dt)
	base := rng.Derive(uint64(seed)+1, exp.ID)
	seedA := base.Uint64()
	seedB := base.Uint64()

	transposeB := pt.transposeB()
	a, aStats := cache.materialize(pat, dt, "A", seed, seedA, cfg.Size, false)
	g, bStats := cache.materialize(pat, dt, "B", seed, seedB, cfg.Size, !transposeB)

	var prob *kernels.Problem
	if transposeB {
		prob = kernels.NewTransposedProblem(dt, a, g)
	} else {
		prob = kernels.NewProblem(dt, a, g)
	}
	if cfg.Tile != (kernels.TileConfig{}) {
		prob.Tile = cfg.Tile
	}
	rep, err := activity.AnalyzeWithStats(prob, activity.Config{
		SampleOutputs: cfg.SampleOutputs,
		Seed:          activity.SampleSeed,
	}, aStats, bStats)
	if err != nil {
		return analysis{}, err
	}
	// Decorrelate measurement noise across points: the generation seeds
	// are point-independent, so fold the point label in.
	return analysis{prob: prob, rep: rep, noiseSeed: rng.Derive(seedA^seedB, pt.Label).Uint64()}, nil
}

// measure is the per-device half of a measurement: the power model on
// dev, then the DCGM-style sampled run.
func measure(dev *device.Device, vmInstance uint64, an analysis) (runOutcome, error) {
	res, err := power.Evaluate(dev, an.prob, an.rep)
	if err != nil {
		return runOutcome{}, err
	}
	// Paper iteration counts, raised when the kernel is so fast (small
	// test sizes) that the run would not span enough 100 ms samples.
	iters := iterationsFor(an.prob.DType)
	if rec := telemetry.RecommendedIterations(res); rec > iters {
		iters = rec
	}
	meas, err := telemetry.Measure(res, iters, telemetry.Config{
		VMInstance: vmInstance,
		Seed:       an.noiseSeed,
	})
	if err != nil {
		return runOutcome{}, err
	}
	return runOutcome{
		powerW:    meas.AvgPowerW,
		iterTimeS: meas.IterTimeS,
		energyJ:   meas.EnergyPerIterJ,
		alignment: an.rep.MeanAlignment,
		hamming:   an.rep.MeanHammingA,
		busyFrac:  meas.BusyFrac,
		throttled: meas.Throttled,
	}, nil
}

// Run executes an experiment under the configuration and aggregates
// seeds into cells. Runs are fanned out to Workers goroutines.
func Run(exp Experiment, cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	frs, errs := runDevices(exp, cfg, []*device.Device{cfg.Device})
	return frs[0], errs[0]
}

// runDevices runs an experiment once and evaluates every job on each
// device, returning per device what Run(exp, cfg) with cfg.Device set
// to that device returns. The inputs and their activity analysis do not
// depend on the device, so devices measured at one size share them;
// only the power model and the sampled run are per device.
func runDevices(exp Experiment, cfg Config, devs []*device.Device) ([]*FigureResult, []error) {
	cfg = cfg.withDefaults()
	frs := make([]*FigureResult, len(devs))
	errs := make([]error, len(devs))
	live := 0
	for d, dev := range devs {
		if errs[d] = dev.Validate(); errs[d] == nil {
			live++
		}
	}
	if live == 0 {
		return frs, errs
	}
	if len(exp.Points) == 0 {
		for d := range errs {
			if errs[d] == nil {
				errs[d] = fmt.Errorf("experiments: %s has no points", exp.ID)
			}
		}
		return frs, errs
	}

	jobs := make([]runJob, 0, len(cfg.DTypes)*len(exp.Points)*cfg.Seeds)
	for di := range cfg.DTypes {
		for pi := range exp.Points {
			for s := 0; s < cfg.Seeds; s++ {
				jobs = append(jobs, runJob{di, pi, s})
			}
		}
	}

	// Per-run base-matrix cache, so transform variants across points
	// (and datatypes of the same encoding class) share one generation
	// per (seed, side).
	cache := newBaseCache(exp, cfg.DTypes)

	// byDev[d][idx] is job idx's outcome on device d.
	byDev := make([][]runResult, len(devs))
	for d := range devs {
		byDev[d] = make([]runResult, len(jobs))
	}
	var wg sync.WaitGroup
	workers := cfg.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	jobCh := make(chan int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobCh {
				j := jobs[idx]
				an, err := analyze(cfg, exp, exp.Points[j.pi], cfg.DTypes[j.di], j.seed, cache)
				for d, dev := range devs {
					r := &byDev[d][idx]
					r.runJob = j
					switch {
					case errs[d] != nil:
					case err != nil:
						r.err = err
					default:
						r.out, r.err = measure(dev, cfg.VMInstance, an)
					}
				}
			}
		}()
	}
	for idx := range jobs {
		jobCh <- idx
	}
	close(jobCh)
	wg.Wait()

	for d, dev := range devs {
		if errs[d] != nil {
			continue
		}
		dcfg := cfg
		dcfg.Device = dev
		frs[d], errs[d] = aggregate(exp, dcfg, byDev[d])
	}
	return frs, errs
}

// runJob is one (dtype, point, seed) coordinate of a run.
type runJob struct{ di, pi, seed int }

// runResult is one job's outcome on one device.
type runResult struct {
	runJob
	out runOutcome
	err error
}

// aggregate folds one device's job outcomes, in job order, into
// per-point cells, averaging over seeds. The first failed job fails the
// whole figure.
func aggregate(exp Experiment, cfg Config, results []runResult) (*FigureResult, error) {
	fr := &FigureResult{Experiment: exp, Config: cfg, Series: map[matrix.DType][]Cell{}}
	for di, dt := range cfg.DTypes {
		cells := make([]Cell, len(exp.Points))
		for pi, pt := range exp.Points {
			var powers, times, energies, aligns, hams, busies []float64
			throttled := false
			for _, r := range results {
				if r.err != nil {
					return nil, fmt.Errorf("experiments: %s %v point %q seed %d: %w",
						exp.ID, cfg.DTypes[r.di], exp.Points[r.pi].Label, r.seed, r.err)
				}
				if r.di != di || r.pi != pi {
					continue
				}
				powers = append(powers, r.out.powerW)
				times = append(times, r.out.iterTimeS)
				energies = append(energies, r.out.energyJ)
				aligns = append(aligns, r.out.alignment)
				hams = append(hams, r.out.hamming)
				busies = append(busies, r.out.busyFrac)
				throttled = throttled || r.out.throttled
			}
			cells[pi] = Cell{
				Label:          pt.Label,
				X:              pt.X,
				PowerW:         stats.Mean(powers),
				PowerErrW:      stats.StdErr(powers),
				IterTimeS:      stats.Mean(times),
				IterTimeErrS:   stats.StdErr(times),
				EnergyPerIterJ: stats.Mean(energies),
				MeanAlignment:  stats.Mean(aligns),
				MeanHamming:    stats.Mean(hams),
				BusyFrac:       stats.Mean(busies),
				Throttled:      throttled,
			}
		}
		fr.Series[dt] = cells
	}
	return fr, nil
}

// PowerSwing returns the relative spread (max-min)/max of mean power
// across a series, the quantity behind the paper's "almost 40%"
// headline.
func PowerSwing(cells []Cell) float64 {
	if len(cells) == 0 {
		return 0
	}
	lo, hi := cells[0].PowerW, cells[0].PowerW
	for _, c := range cells[1:] {
		if c.PowerW < lo {
			lo = c.PowerW
		}
		if c.PowerW > hi {
			hi = c.PowerW
		}
	}
	if hi == 0 {
		return 0
	}
	return (hi - lo) / hi
}
