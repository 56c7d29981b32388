package activity

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/patterns"
	"repro/internal/rng"
)

// Property tests pinning the incremental/fused fast paths to the full
// reference computations, byte-for-byte on every field:
//
//   - DeltaRowScan/DeltaColScan ≡ ScanA/ScanB after a tracked
//     transform chain, across dtypes × chains × seeds.
//   - EncodeScanGaussian / EncodeScanValues / GenerateGaussianFused ≡
//     the unfused encode followed by ScanA, including the FP16
//     conversion range tails (subnormal, overflow).
//   - AnalyzeWithStats fed precomputed operand stats ≡ the full-rescan
//     Analyze, on every Report field, for both storage orientations.
//
// The full-rescan path is not legacy: it stays the selectable
// reference (AnalyzeWithStats with nil stats takes it), and these
// tests are what entitle the engine to skip it on hot paths.

// statsEqual fails the test unless the two operand stats agree exactly
// on every field.
func statsEqual(t *testing.T, ctx string, got, want *OperandStats) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil stats (got %v, want %v)", ctx, got, want)
	}
	if got.Toggles != want.Toggles {
		t.Errorf("%s: Toggles = %d, want %d", ctx, got.Toggles, want.Toggles)
	}
	if got.Hamming != want.Hamming {
		t.Errorf("%s: Hamming = %d, want %d", ctx, got.Hamming, want.Hamming)
	}
	if got.NonZero != want.NonZero {
		t.Errorf("%s: NonZero = %d, want %d", ctx, got.NonZero, want.NonZero)
	}
	if !reflect.DeepEqual(got.Sig, want.Sig) {
		t.Errorf("%s: per-column Sig sums differ", ctx)
	}
}

// TestDeltaScanEquivalence: applying a tracked transform chain to a
// clone and patching the base's stats by the touched positions must
// reproduce the full rescan of the transformed matrix exactly — in
// both stream orientations — and the tracked application itself must
// leave bits identical to the plain Transform (same RNG stream).
func TestDeltaScanEquivalence(t *testing.T) {
	chains := []struct {
		name string
		pat  func() patterns.Pattern
	}{
		{"flips", func() patterns.Pattern { return patterns.GaussianDefault().BitFlips(0.002) }},
		{"sparse", func() patterns.Pattern { return patterns.GaussianDefault().Sparse(0.05) }},
		{"flips|sparse", func() patterns.Pattern {
			return patterns.Gaussian(3, 7).BitFlips(0.001).Sparse(0.02)
		}},
		{"set|flips", func() patterns.Pattern {
			return patterns.FromSet(16, 0, 210).BitFlips(0.002)
		}},
	}
	const rows, cols = 48, 32
	for _, dt := range matrix.ExtendedDTypes {
		for _, ch := range chains {
			for seed := uint64(1); seed <= 3; seed++ {
				ctx := fmt.Sprintf("%v/%s/seed%d", dt, ch.name, seed)
				pat := ch.pat()
				base := matrix.New(dt, rows, cols)
				pat.BaseFill(base, rng.Derive(seed, "base"))

				cur := base.Clone()
				touched, ok := pat.DeltaTransform(cur, rng.Derive(seed, "x"))
				if !ok {
					t.Fatalf("%s: chain unexpectedly untrackable", ctx)
				}
				ref := base.Clone()
				pat.Transform(ref, rng.Derive(seed, "x"))
				if !reflect.DeepEqual(cur.Bits, ref.Bits) {
					t.Fatalf("%s: tracked transform diverges from plain transform", ctx)
				}

				rowSt := ScanA(base).DeltaRowScan(base, cur, touched)
				if rowSt == nil {
					t.Fatalf("%s: dense fallback triggered (%d touches)", ctx, len(touched))
				}
				statsEqual(t, ctx+"/row", rowSt, ScanA(cur))

				colSt := ScanB(base).DeltaColScan(base, cur, touched)
				if colSt == nil {
					t.Fatalf("%s: dense fallback triggered (%d touches)", ctx, len(touched))
				}
				statsEqual(t, ctx+"/col", colSt, ScanB(cur))
			}
		}
	}
}

// TestDeltaScanDenseFallback: a touch set dense enough that patching
// would cost more than rescanning must return nil so the caller takes
// the retained full-rescan path.
func TestDeltaScanDenseFallback(t *testing.T) {
	m := matrix.New(matrix.FP32, 8, 8)
	touched := make([]int32, len(m.Bits))
	for i := range touched {
		touched[i] = int32(i)
	}
	if ScanA(m).DeltaRowScan(m, m, touched) != nil {
		t.Error("DeltaRowScan must decline dense touch sets")
	}
	if ScanB(m).DeltaColScan(m, m, touched) != nil {
		t.Error("DeltaColScan must decline dense touch sets")
	}
}

// TestEncodeScanGaussianEquivalence: the fused encode+scan must write
// the same bits and return the same stats as EncodeGaussianStream
// followed by ScanA. The tiny and huge σ values push FP16 into its
// subnormal and overflow conversion tails, so the hand-inlined
// normal-range path's range check is exercised on both sides.
func TestEncodeScanGaussianEquivalence(t *testing.T) {
	const rows, cols = 24, 40
	params := []struct{ mean, std float64 }{
		{0, 210}, {500, 1}, {0, 25}, {0, 1e-7}, {0, 7e4}, {-3, 0},
	}
	for _, dt := range matrix.ExtendedDTypes {
		for _, pr := range params {
			for seed := uint64(1); seed <= 2; seed++ {
				ctx := fmt.Sprintf("%v/mean=%g,std=%g/seed%d", dt, pr.mean, pr.std, seed)
				raw := matrix.GaussianStream(rng.Derive(seed, "g"), rows*cols)

				ref := matrix.New(dt, rows, cols)
				matrix.EncodeGaussianStream(ref, raw, pr.mean, pr.std)

				m := matrix.New(dt, rows, cols)
				st := EncodeScanGaussian(m, raw, pr.mean, pr.std)
				if !reflect.DeepEqual(m.Bits, ref.Bits) {
					t.Fatalf("%s: fused encode bits diverge", ctx)
				}
				statsEqual(t, ctx, st, ScanA(ref))
			}
		}
	}
}

// TestEncodeScanValuesEquivalence: same contract for the verbatim
// (value-set) encode.
func TestEncodeScanValuesEquivalence(t *testing.T) {
	const rows, cols = 24, 40
	for _, dt := range matrix.ExtendedDTypes {
		for seed := uint64(1); seed <= 3; seed++ {
			ctx := fmt.Sprintf("%v/seed%d", dt, seed)
			raw := matrix.FromSetStream(rng.Derive(seed, "s"), 16, 0, 210, rows*cols)

			ref := matrix.New(dt, rows, cols)
			matrix.EncodeValues(ref, raw)

			m := matrix.New(dt, rows, cols)
			st := EncodeScanValues(m, raw)
			if !reflect.DeepEqual(m.Bits, ref.Bits) {
				t.Fatalf("%s: fused encode bits diverge", ctx)
			}
			statsEqual(t, ctx, st, ScanA(ref))
		}
	}
}

// TestGenerateGaussianFusedEquivalence: one fused multi-class
// generation must equal the reference pipeline — one shared draw
// stream, then per class an independent encode and rescan — in bits
// and stats for every class.
func TestGenerateGaussianFusedEquivalence(t *testing.T) {
	const rows, cols = 32, 24
	for seed := uint64(1); seed <= 3; seed++ {
		targets := make([]GaussianTarget, 0, len(matrix.ExtendedDTypes))
		for _, dt := range matrix.ExtendedDTypes {
			std := 210.0
			if dt == matrix.INT8 {
				std = 25
			}
			targets = append(targets, GaussianTarget{
				M: matrix.New(dt, rows, cols), Mean: 0, Std: std,
			})
		}
		GenerateGaussianFused(rng.Derive(seed, "multi"), targets)

		raw := matrix.GaussianStream(rng.Derive(seed, "multi"), rows*cols)
		for _, tg := range targets {
			ctx := fmt.Sprintf("%v/seed%d", tg.M.DType, seed)
			ref := matrix.New(tg.M.DType, rows, cols)
			matrix.EncodeGaussianStream(ref, raw, tg.Mean, tg.Std)
			if !reflect.DeepEqual(tg.M.Bits, ref.Bits) {
				t.Fatalf("%s: fused generation bits diverge", ctx)
			}
			statsEqual(t, ctx, tg.Stats, ScanA(ref))
		}
	}
}

// TestAnalyzeWithStatsEquivalence: an analysis fed precomputed operand
// stats (the experiments engine's incremental path) must produce a
// Report identical on every field to the full-rescan analysis, for
// both B storage orientations.
func TestAnalyzeWithStatsEquivalence(t *testing.T) {
	const n = 48
	cfg := Config{SampleOutputs: 32, Seed: SampleSeed}
	for _, dt := range matrix.ExtendedDTypes {
		a := matrix.New(dt, n, n)
		g := matrix.New(dt, n, n)
		matrix.FillGaussian(a, rng.Derive(7, "A"), 0, matrix.DefaultStd(dt))
		matrix.FillGaussian(g, rng.Derive(7, "B"), 0, matrix.DefaultStd(dt))
		for _, transposed := range []bool{false, true} {
			ctx := fmt.Sprintf("%v/transposed=%v", dt, transposed)
			prob := kernels.NewProblem(dt, a, g)
			stB := ScanB(g)
			if transposed {
				prob = kernels.NewTransposedProblem(dt, a, g)
				// Transposed storage streams B row-wise: the operand's
				// column-stream profile is the stored matrix's row scan.
				stB = ScanA(g)
			}
			want, err := AnalyzeWithStats(prob, cfg, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := AnalyzeWithStats(prob, cfg, ScanA(a), stB)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Report differs:\n got %+v\nwant %+v", ctx, got, want)
			}
		}
	}
}
