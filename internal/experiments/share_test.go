package experiments

import (
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

// TestMaterializeLeadSortMatchesTransform checks the shared-argsort
// path: every point whose chain starts with a sort is placed from the
// base entry's memoized argsort, and must equal the pattern's own
// reference pipeline (BaseFill, then Transform on the transform
// stream) run on a fresh matrix, in every datatype and on both sides.
func TestMaterializeLeadSortMatchesTransform(t *testing.T) {
	var pts []Point
	for _, exp := range []Experiment{Fig5aSortRows(), Fig5bSortAligned(), Fig5cSortCols(),
		Fig5dSortWithinRows(), Fig6bSparsityAfterSort()} {
		pts = append(pts, exp.Points...)
	}
	for _, src := range []string{
		"gaussian(default) | sort(cols, 60%) | sparsify(30%)",
		"gaussian(default) | sort(withinrows, 40%) | flip(0.05)",
		"gaussian(default) | sort(rows, 25%) | flip(0.3) | sparsify(10%)",
	} {
		pat := patterns.MustParse(src)
		pts = append(pts, Point{Label: src, Pattern: func(matrix.DType) patterns.Pattern { return pat }})
	}
	exp := Experiment{ID: "leadsort", Points: pts}
	const size = 40
	cache := newBaseCache(exp, matrix.ExtendedDTypes)
	for seed := 0; seed < 2; seed++ {
		streamSeed := uint64(seed)*7919 + 17
		for _, dt := range matrix.ExtendedDTypes {
			for _, pt := range pts {
				pat := pt.Pattern(dt)
				if pat.Lead == nil {
					t.Fatalf("%s: no leading sort recorded", pat.Name)
				}
				for _, side := range []struct {
					name string
					col  bool
				}{{"A", false}, {"B", true}} {
					got, _ := cache.materialize(pat, dt, side.name, seed, streamSeed, size, side.col)
					want := matrix.New(dt, size, size)
					pat.BaseFill(want, rng.Derive(streamSeed, side.name+"/"+pat.BaseName))
					pat.Transform(want, rng.Derive(streamSeed, side.name+"/x/"+pat.Name))
					if !got.Equal(want) {
						t.Fatalf("%v seed %d side %s %s: memoized placement differs from Transform",
							dt, seed, side.name, pat.Name)
					}
				}
			}
		}
	}
	if n := len(cache.entries); n != 0 {
		t.Errorf("%d base entries left after every use", n)
	}
}

// TestRunFig7MatchesPerDeviceRun checks that sharing one analysis per
// size group changes nothing: over devices at two sizes, every Fig. 7
// cell equals the cell a per-device Run produces, bit for bit.
func TestRunFig7MatchesPerDeviceRun(t *testing.T) {
	cfg := Quick()
	cfg.Seeds = 2
	cfg.SampleOutputs = 32
	duts := []DeviceUnderTest{
		{Device: device.V100SXM2(), Size: 48},
		{Device: device.A100PCIe(), Size: 32},
		{Device: device.H100SXM(), Size: 48},
		{Device: device.RTX6000(), Size: 32},
	}
	r, err := RunFig7(cfg, duts)
	if err != nil {
		t.Fatal(err)
	}
	for _, dut := range duts {
		name := dut.Device.Name
		if r.Sizes[name] != dut.Size {
			t.Errorf("%s: size %d, want %d", name, r.Sizes[name], dut.Size)
		}
		dcfg := cfg
		dcfg.Device = dut.Device
		dcfg.Size = dut.Size
		dcfg.DTypes = []matrix.DType{matrix.FP16}
		for _, exp := range Fig7Experiments() {
			fr, err := Run(exp, dcfg)
			if err != nil {
				t.Fatal(err)
			}
			want, got := fr.Series[matrix.FP16], r.Results[name][exp.ID]
			if len(got) != len(want) {
				t.Fatalf("%s/%s: %d cells, want %d", name, exp.ID, len(got), len(want))
			}
			for i := range want {
				if !sameCell(got[i], want[i]) {
					t.Errorf("%s/%s point %s: %+v, per-device Run %+v", name, exp.ID, want[i].Label, got[i], want[i])
				}
			}
		}
	}
}

// sameCell compares every Cell field, floats by their bits.
func sameCell(a, b Cell) bool {
	fa := []float64{a.X, a.PowerW, a.PowerErrW, a.IterTimeS, a.IterTimeErrS, a.EnergyPerIterJ,
		a.MeanAlignment, a.MeanHamming, a.BusyFrac}
	fb := []float64{b.X, b.PowerW, b.PowerErrW, b.IterTimeS, b.IterTimeErrS, b.EnergyPerIterJ,
		b.MeanAlignment, b.MeanHamming, b.BusyFrac}
	for i := range fa {
		if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
			return false
		}
	}
	return a.Label == b.Label && a.Throttled == b.Throttled
}
