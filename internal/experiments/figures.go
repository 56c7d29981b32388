package experiments

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/stats"
)

// This file defines every figure of the paper's evaluation as an
// Experiment. The per-experiment index in DESIGN.md maps each ID to its
// paper figure, takeaway, and bench target.

func boolPtr(b bool) *bool { return &b }

// gaussianDefaultPoint is the paper's baseline input at a given label.
func gaussianDefaultPoint(label string, x float64) Point {
	return Point{
		Label:   label,
		X:       x,
		Pattern: func(dt matrix.DType) patterns.Pattern { return patterns.GaussianDefault() },
	}
}

// Fig1Runtime is Fig. 1: average iteration runtime by datatype for the
// 2048² GEMM. One baseline point; the interesting axis is the datatype.
func Fig1Runtime() Experiment {
	return Experiment{
		ID:       "fig1",
		Title:    "Average iteration runtime by datatype",
		Takeaway: "Iteration runtimes are input-independent and consistent to the microsecond",
		XLabel:   "baseline",
		Points:   []Point{gaussianDefaultPoint("gaussian", 0)},
	}
}

// Fig2Energy is Fig. 2: average iteration energy with Gaussian inputs
// (mean 0, σ 210 FP / 25 INT8).
func Fig2Energy() Experiment {
	return Experiment{
		ID:       "fig2",
		Title:    "Average iteration energy by datatype (Gaussian inputs)",
		Takeaway: "Energy tracks runtime across datatypes at similar power",
		XLabel:   "baseline",
		Points:   []Point{gaussianDefaultPoint("gaussian", 0)},
	}
}

// Fig3aStddev is Fig. 3a: Gaussian standard deviation sweep at mean 0.
// The sweep is expressed as a multiple of the datatype's default σ so
// all datatypes stay in range.
func Fig3aStddev() Experiment {
	fracs := []float64{0.01, 0.05, 0.25, 0.5, 1, 2.5, 5}
	pts := make([]Point, len(fracs))
	for i, f := range fracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%gxσ₀", f),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.Gaussian(0, f*matrix.DefaultStd(dt))
			},
		}
	}
	return Experiment{
		ID:       "fig3a",
		Title:    "Distribution standard deviation",
		Takeaway: "T1: input distribution standard deviation does not significantly impact power",
		XLabel:   "σ multiplier",
		Points:   pts,
	}
}

// Fig3bMean is Fig. 3b: Gaussian mean sweep at σ = 1. INT8 means are
// compressed to stay inside the representable range.
func Fig3bMean() Experiment {
	means := []float64{0, 1, 4, 16, 64, 256, 1024}
	pts := make([]Point, len(means))
	for i, mu := range means {
		mu := mu
		pts[i] = Point{
			Label: fmt.Sprintf("mean=%g", mu),
			X:     mu,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				m := mu
				if dt == matrix.INT8 && m > 100 {
					m = 100
				}
				return patterns.Gaussian(m, 1)
			},
		}
	}
	return Experiment{
		ID:       "fig3b",
		Title:    "Distribution mean",
		Takeaway: "T2: larger input value means can reduce power for FP datatypes",
		XLabel:   "distribution mean",
		Points:   pts,
	}
}

// Fig3cValueSet is Fig. 3c: inputs drawn uniformly from a set of n
// Gaussian values.
func Fig3cValueSet() Experiment {
	sizes := []int{1, 2, 4, 16, 64, 256, 1024}
	pts := make([]Point, len(sizes))
	for i, n := range sizes {
		n := n
		pts[i] = Point{
			Label: fmt.Sprintf("n=%d", n),
			X:     float64(n),
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.FromSet(n, 0, matrix.DefaultStd(dt))
			},
		}
	}
	return Experiment{
		ID:       "fig3c",
		Title:    "Inputs from a set",
		Takeaway: "T3: inputs from a small set of unique values decrease power consumption",
		XLabel:   "set size",
		Points:   pts,
	}
}

// Fig4aBitFlips is Fig. 4a: starting from constant-filled matrices,
// flip each bit with probability p.
func Fig4aBitFlips() Experiment {
	probs := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.5}
	pts := make([]Point, len(probs))
	for i, p := range probs {
		p := p
		pts[i] = Point{
			Label: fmt.Sprintf("p=%g", p),
			X:     p,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.ConstantRandom(0, matrix.DefaultStd(dt)).BitFlips(p)
			},
		}
	}
	return Experiment{
		ID:       "fig4a",
		Title:    "Random bit flips",
		Takeaway: "T4: input data with highly similar bits uses less power",
		XLabel:   "flip probability",
		Points:   pts,
	}
}

// bitFracs parameterizes the LSB/MSB sweeps as fractions of the
// datatype width, so FP32 (32b), FP16 (16b) and INT8 (8b) sweep their
// whole lanes.
var bitFracs = []float64{0, 0.125, 0.25, 0.375, 0.5, 0.75, 1}

func bitsOf(dt matrix.DType, frac float64) int {
	return int(math.Round(frac * float64(dt.Width())))
}

// Fig4bLSB is Fig. 4b: randomize the least significant bits of a
// constant fill.
func Fig4bLSB() Experiment {
	pts := make([]Point, len(bitFracs))
	for i, f := range bitFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%% of bits", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.ConstantRandom(0, matrix.DefaultStd(dt)).RandomLSBs(bitsOf(dt, f))
			},
		}
	}
	return Experiment{
		ID:       "fig4b",
		Title:    "Least significant bits randomized",
		Takeaway: "T5: as more least significant bits are randomized, power increases",
		XLabel:   "fraction of LSBs randomized",
		Points:   pts,
	}
}

// Fig4cMSB is Fig. 4c: randomize the most significant bits.
func Fig4cMSB() Experiment {
	pts := make([]Point, len(bitFracs))
	for i, f := range bitFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%% of bits", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.ConstantRandom(0, matrix.DefaultStd(dt)).RandomMSBs(bitsOf(dt, f))
			},
		}
	}
	return Experiment{
		ID:       "fig4c",
		Title:    "Most significant bits randomized",
		Takeaway: "T6: as more of the most significant bits are randomized, power increases",
		XLabel:   "fraction of MSBs randomized",
		Points:   pts,
	}
}

var sortFracs = []float64{0, 0.25, 0.5, 0.75, 1}

func sortExperiment(id, title, takeaway string, kind patterns.SortKind, transposeB *bool) Experiment {
	pts := make([]Point, len(sortFracs))
	for i, f := range sortFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%%", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.GaussianDefault().Sorted(kind, f)
			},
			TransposeB: transposeB,
		}
	}
	return Experiment{ID: id, Title: title, Takeaway: takeaway, XLabel: "fraction sorted", Points: pts}
}

// Fig5aSortRows is Fig. 5a: partial sort into rows, B not transposed.
func Fig5aSortRows() Experiment {
	return sortExperiment("fig5a", "Sorted into rows (B not transposed)",
		"T8: sorting input values can decrease power consumption",
		patterns.SortRows, boolPtr(false))
}

// Fig5bSortAligned is Fig. 5b: partial sort into rows with B
// transposed, so the lowest values of A multiply the lowest of B.
func Fig5bSortAligned() Experiment {
	return sortExperiment("fig5b", "Sorted and aligned (B transposed)",
		"T9: aligning sorted values decreases power even more than just sorting",
		patterns.SortRows, boolPtr(true))
}

// Fig5cSortCols is Fig. 5c: partial sort into columns.
func Fig5cSortCols() Experiment {
	return sortExperiment("fig5c", "Sorted into columns",
		"T10: sorting values into columns can decrease power consumption",
		patterns.SortCols, nil)
}

// Fig5dSortWithinRows is Fig. 5d: partial sort within each row.
func Fig5dSortWithinRows() Experiment {
	return sortExperiment("fig5d", "Sorted within rows",
		"T11: intra-row sorting can decrease power, but to a lesser extent than sorting fully",
		patterns.SortWithinRows, nil)
}

var sparsityFracs = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9, 1}

// Fig6aSparsity is Fig. 6a: random sparsity on Gaussian inputs.
func Fig6aSparsity() Experiment {
	pts := make([]Point, len(sparsityFracs))
	for i, f := range sparsityFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%%", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.GaussianDefault().Sparse(f)
			},
		}
	}
	return Experiment{
		ID:       "fig6a",
		Title:    "General sparsity",
		Takeaway: "T12: matrix sparsity decreases GEMM power",
		XLabel:   "sparsity",
		Points:   pts,
	}
}

// Fig6bSparsityAfterSort is Fig. 6b: matrices fully sorted before
// sparsity is added. For FP datatypes power peaks around 30–40%
// sparsity.
func Fig6bSparsityAfterSort() Experiment {
	pts := make([]Point, len(sparsityFracs))
	for i, f := range sparsityFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%%", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.GaussianDefault().Sorted(patterns.SortRows, 1).Sparse(f)
			},
		}
	}
	return Experiment{
		ID:       "fig6b",
		Title:    "Sparsity after sorting",
		Takeaway: "T13: sparsity applied to sorted matrices can actually increase power consumption",
		XLabel:   "sparsity",
		Points:   pts,
	}
}

// Fig6cZeroLSB is Fig. 6c: zero the least significant bits of Gaussian
// inputs.
func Fig6cZeroLSB() Experiment {
	pts := make([]Point, len(bitFracs))
	for i, f := range bitFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%% of bits", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.GaussianDefault().ZeroLSBs(bitsOf(dt, f))
			},
		}
	}
	return Experiment{
		ID:       "fig6c",
		Title:    "Sparsity in least significant bits",
		Takeaway: "T14: zeroing least significant bits can reduce power",
		XLabel:   "fraction of LSBs zeroed",
		Points:   pts,
	}
}

// Fig6dZeroMSB is Fig. 6d: zero the most significant bits.
func Fig6dZeroMSB() Experiment {
	pts := make([]Point, len(bitFracs))
	for i, f := range bitFracs {
		f := f
		pts[i] = Point{
			Label: fmt.Sprintf("%.0f%% of bits", f*100),
			X:     f,
			Pattern: func(dt matrix.DType) patterns.Pattern {
				return patterns.GaussianDefault().ZeroMSBs(bitsOf(dt, f))
			},
		}
	}
	return Experiment{
		ID:       "fig6d",
		Title:    "Sparsity in most significant bits",
		Takeaway: "T15: zeroing most significant bits can reduce power",
		XLabel:   "fraction of MSBs zeroed",
		Points:   pts,
	}
}

// Figures returns every single-device experiment in paper order.
func Figures() []Experiment {
	return []Experiment{
		Fig1Runtime(), Fig2Energy(),
		Fig3aStddev(), Fig3bMean(), Fig3cValueSet(),
		Fig4aBitFlips(), Fig4bLSB(), Fig4cMSB(),
		Fig5aSortRows(), Fig5bSortAligned(), Fig5cSortCols(), Fig5dSortWithinRows(),
		Fig6aSparsity(), Fig6bSparsityAfterSort(), Fig6cZeroLSB(), Fig6dZeroMSB(),
	}
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	for _, e := range Figures() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Fig7Result holds the cross-GPU generalization runs (Fig. 7): for each
// device, the FP16 series of four experiments.
type Fig7Result struct {
	// Results maps device name → experiment ID → FP16 cells.
	Results map[string]map[string][]Cell
	// Sizes records the matrix size used per device (512 for the
	// RTX 6000, which throttles at 2048²).
	Sizes map[string]int
}

// Fig7Experiments returns the four panels the paper replicates across
// GPUs: distribution mean, MSB randomization, sorted rows, and general
// sparsity (all FP16).
func Fig7Experiments() []Experiment {
	return []Experiment{Fig3bMean(), Fig4cMSB(), Fig5aSortRows(), Fig6aSparsity()}
}

// RunFig7 executes the generalization study. The base configuration
// supplies size/seeds; device and datatype are overridden per the
// paper: V100, A100, H100 at cfg.Size and the RTX 6000 at 512 (it
// throttles at 2048²), FP16 only.
//
// Devices at the same size share one run of each experiment: the
// inputs and their activity analysis do not depend on the device, so
// only the power model and the sampled run are repeated per device.
// The result equals running each device on its own.
func RunFig7(cfg Config, devices []DeviceUnderTest) (*Fig7Result, error) {
	cfg = cfg.withDefaults()
	exps := Fig7Experiments()
	// Group devices by size, in first-seen order.
	var sizes []int
	bySize := map[int][]int{}
	for i, dut := range devices {
		if _, ok := bySize[dut.Size]; !ok {
			sizes = append(sizes, dut.Size)
		}
		bySize[dut.Size] = append(bySize[dut.Size], i)
	}
	frs := make([][]*FigureResult, len(devices)) // device → experiment
	errs := make([][]error, len(devices))
	for i := range devices {
		frs[i] = make([]*FigureResult, len(exps))
		errs[i] = make([]error, len(exps))
	}
	for _, size := range sizes {
		idx := bySize[size]
		devs := make([]*device.Device, len(idx))
		for j, i := range idx {
			devs[j] = devices[i].Device
		}
		gcfg := cfg
		gcfg.Device = devs[0]
		gcfg.Size = size
		gcfg.DTypes = []matrix.DType{matrix.FP16}
		for ei, exp := range exps {
			gfrs, gerrs := runDevices(exp, gcfg, devs)
			for j, i := range idx {
				frs[i][ei], errs[i][ei] = gfrs[j], gerrs[j]
			}
		}
	}
	out := &Fig7Result{
		Results: map[string]map[string][]Cell{},
		Sizes:   map[string]int{},
	}
	for i, dut := range devices {
		out.Sizes[dut.Device.Name] = dut.Size
		out.Results[dut.Device.Name] = map[string][]Cell{}
		for ei, exp := range exps {
			if err := errs[i][ei]; err != nil {
				return nil, fmt.Errorf("fig7 %s/%s: %w", dut.Device.Name, exp.ID, err)
			}
			out.Results[dut.Device.Name][exp.ID] = frs[i][ei].Series[matrix.FP16]
		}
	}
	return out, nil
}

// DeviceUnderTest pairs a device with the matrix size the paper used on
// it.
type DeviceUnderTest struct {
	Device *device.Device
	Size   int
}

// PaperDevices returns the paper's Fig. 7 testbed list at the given
// base size: V100, A100 and H100 at size, the RTX 6000 at 512 (it
// throttled at 2048²).
func PaperDevices(size int) []DeviceUnderTest {
	rtxSize := 512
	if size < rtxSize {
		rtxSize = size
	}
	return []DeviceUnderTest{
		{Device: device.V100SXM2(), Size: size},
		{Device: device.A100PCIe(), Size: size},
		{Device: device.H100SXM(), Size: size},
		{Device: device.RTX6000(), Size: rtxSize},
	}
}

// Fig8Point is one experiment configuration in the Fig. 8 scatter.
type Fig8Point struct {
	ExperimentID string
	Label        string
	Alignment    float64
	Hamming      float64
	PowerW       float64
}

// Fig8Result is the bit-alignment / Hamming-weight correlation analysis
// (§IV-F) over a corpus of figure results.
type Fig8Result struct {
	// Points maps datatype → scatter points (one per experiment cell).
	Points map[matrix.DType][]Fig8Point
	// AlignmentCorr and HammingCorr are Pearson correlations between
	// power and each statistic, per datatype.
	AlignmentCorr map[matrix.DType]float64
	HammingCorr   map[matrix.DType]float64
}

// BuildFig8 assembles the scatter and correlations from prior results.
func BuildFig8(results []*FigureResult) *Fig8Result {
	out := &Fig8Result{
		Points:        map[matrix.DType][]Fig8Point{},
		AlignmentCorr: map[matrix.DType]float64{},
		HammingCorr:   map[matrix.DType]float64{},
	}
	for _, fr := range results {
		for dt, cells := range fr.Series {
			for _, c := range cells {
				out.Points[dt] = append(out.Points[dt], Fig8Point{
					ExperimentID: fr.Experiment.ID,
					Label:        c.Label,
					Alignment:    c.MeanAlignment,
					Hamming:      c.MeanHamming,
					PowerW:       c.PowerW,
				})
			}
		}
	}
	for dt, pts := range out.Points {
		al := make([]float64, len(pts))
		hw := make([]float64, len(pts))
		pw := make([]float64, len(pts))
		for i, p := range pts {
			al[i] = p.Alignment
			hw[i] = p.Hamming
			pw[i] = p.PowerW
		}
		out.AlignmentCorr[dt] = stats.Pearson(al, pw)
		out.HammingCorr[dt] = stats.Pearson(hw, pw)
	}
	return out
}
