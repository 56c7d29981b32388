package activity

import (
	"math"
	"testing"

	"repro/internal/kernels"
	"repro/internal/matrix"
	"repro/internal/rng"
	"repro/internal/softfloat"
)

// scalarGEMM is the reference oracle for the walk's arithmetic: a
// row-at-a-time GEMM with per-element operand access and decode, no
// packing and no pairing, in ascending-k order. It returns each output
// element's accumulator bits before the epilogue, in the same encoding
// as laneResult.acc:
//
//	FP32   — float32 multiply, float32 accumulate
//	FP16   — binary16 multiply, binary16 accumulate (SIMT HFMA)
//	FP16-T — binary16 multiply exact in float32, float32 accumulate
//	BF16-T — bfloat16 multiply exact in float32, float32 accumulate
//	INT8   — int8 multiply, int32 accumulate (DP4A)
func scalarGEMM(p *kernels.Problem) []uint32 {
	n, k, m := p.Dims()
	out := make([]uint32, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var acc uint32
			switch p.DType {
			case matrix.FP32:
				var f float32
				for kk := 0; kk < k; kk++ {
					f += softfloat.F32FromBits(p.A.At(i, kk)) * softfloat.F32FromBits(p.BAt(kk, j))
				}
				acc = math.Float32bits(f)
			case matrix.FP16:
				var h uint16
				for kk := 0; kk < k; kk++ {
					h = softfloat.FMA16(uint16(p.A.At(i, kk)), uint16(p.BAt(kk, j)), h)
				}
				acc = uint32(h)
			case matrix.FP16T:
				var f float32
				for kk := 0; kk < k; kk++ {
					f = softfloat.FMA16To32(uint16(p.A.At(i, kk)), uint16(p.BAt(kk, j)), f)
				}
				acc = math.Float32bits(f)
			case matrix.BF16T:
				var f float32
				for kk := 0; kk < k; kk++ {
					f = softfloat.FMABF16To32(uint16(p.A.At(i, kk)), uint16(p.BAt(kk, j)), f)
				}
				acc = math.Float32bits(f)
			case matrix.INT8:
				var d int32
				for kk := 0; kk < k; kk++ {
					d = softfloat.DotI8(int8(uint8(p.A.At(i, kk))), int8(uint8(p.BAt(kk, j))), d)
				}
				acc = uint32(d)
			}
			out[i*m+j] = acc
		}
	}
	return out
}

// accIsNaN reports whether accumulator bits encode a NaN in the
// datatype's accumulator format.
func accIsNaN(dt matrix.DType, acc uint32) bool {
	switch dt {
	case matrix.FP16:
		return softfloat.IsNaN16(uint16(acc))
	case matrix.INT8:
		return false
	default:
		return math.IsNaN(float64(softfloat.F32FromBits(acc)))
	}
}

// fillRawBits fills a matrix with uniformly random raw patterns in the
// dtype's lane width: NaN payloads, infinities and subnormal encodings,
// the patterns a value-level generator never produces.
func fillRawBits(m *matrix.Matrix, src *rng.Source) {
	mask := uint32(1)<<uint(m.DType.Width()) - 1
	if m.DType.Width() == 32 {
		mask = ^uint32(0)
	}
	for i := range m.Bits {
		m.Bits[i] = src.Uint32() & mask
	}
}

// allPositions enumerates every output position in row-major order.
func allPositions(n, m int) [][2]int {
	out := make([][2]int, 0, n*m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// TestWalkMatchesScalarOracle ties the power model's toggles to the
// arithmetic they claim to model: every walked accumulator chain, in
// every datatype, ends on the bits the scalar oracle computes for that
// output. It covers several reduction depths, Gaussian operands at the
// paper's σ (which drive FP16 accumulators into overflow) and raw bit
// patterns (NaN, Inf, subnormals), with B in normal and transposed
// storage, so the paired walk, the odd single lane and both gather
// paths all run. The one permitted difference is a NaN's payload: x86
// float ops propagate the payload of their first NaN operand and Go
// does not pin the operand order of commutative ops, so payload
// selection is a register-allocation artifact. Both sides must still
// agree on whether an element is NaN.
func TestWalkMatchesScalarOracle(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {5, 33, 4}, {4, 130, 3}, {3, 600, 3}}
	var compared, payloads int
	for _, dt := range matrix.ExtendedDTypes {
		for si, sh := range shapes {
			n, k, m := sh[0], sh[1], sh[2]
			seed := uint64(si*10) + uint64(dt) + 1
			for _, raw := range []bool{false, true} {
				a := matrix.New(dt, n, k)
				g := matrix.New(dt, m, k) // Bᵀ: row j is operand column j
				if raw {
					fillRawBits(a, rng.Derive(seed, "Araw"))
					fillRawBits(g, rng.Derive(seed, "Braw"))
				} else {
					matrix.FillGaussian(a, rng.Derive(seed, "A"), 0, matrix.DefaultStd(dt))
					matrix.FillGaussian(g, rng.Derive(seed, "B"), 0, matrix.DefaultStd(dt))
				}
				for _, p := range []*kernels.Problem{
					kernels.NewTransposedProblem(dt, a, g),
					kernels.NewProblem(dt, a, g.Transpose()),
				} {
					want := scalarGEMM(p)
					positions := allPositions(n, m)
					for s, res := range walkPositions(p, positions) {
						i, j := positions[s][0], positions[s][1]
						w := want[i*m+j]
						compared++
						if res.acc == w {
							continue
						}
						if accIsNaN(dt, res.acc) && accIsNaN(dt, w) {
							payloads++
							continue
						}
						t.Fatalf("%v %v raw=%t transposed=%t: lane (%d,%d) ends on %#x, oracle %#x",
							dt, sh, raw, p.BTransposed, i, j, res.acc, w)
					}
				}
			}
		}
	}
	t.Logf("%d lanes compared with the oracle; %d differed only in a NaN payload", compared, payloads)
}

// walkOne walks the single output lane of a 1×k by k×1 problem.
func walkOne(t *testing.T, dt matrix.DType, a, b *matrix.Matrix) uint32 {
	t.Helper()
	p := kernels.NewProblem(dt, a, b)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return walkPositions(p, [][2]int{{0, 0}})[0].acc
}

func TestFP16AccumulationLossy(t *testing.T) {
	// Plain FP16 accumulates in binary16 and therefore absorbs small
	// addends; tensor-core FP32 accumulation does not. Summing k copies
	// of 1.0 with k beyond 2048 shows the difference (2048+1 == 2048 in
	// binary16).
	const k = 4096
	for _, dt := range []matrix.DType{matrix.FP16, matrix.FP16T} {
		a := matrix.New(dt, 1, k)
		b := matrix.New(dt, k, 1)
		matrix.FillConstant(a, 1)
		matrix.FillConstant(b, 1)
		acc := walkOne(t, dt, a, b)
		if dt == matrix.FP16 {
			if got := softfloat.F16ToF32(uint16(acc)); got != 2048 {
				t.Errorf("FP16 accumulate of 4096 ones = %v, want 2048 (saturated)", got)
			}
		} else if got := softfloat.F32FromBits(acc); got != 4096 {
			t.Errorf("FP16T accumulate of 4096 ones = %v, want 4096", got)
		}
	}
}

func TestINT8Exact(t *testing.T) {
	// INT8 with INT32 accumulation is exact integer math.
	const k = 256
	a := matrix.New(matrix.INT8, 1, k)
	b := matrix.New(matrix.INT8, k, 1)
	fillRawBits(a, rng.New(4))
	fillRawBits(b, rng.New(5))
	var want int64
	for kk := 0; kk < k; kk++ {
		want += int64(int8(uint8(a.At(0, kk)))) * int64(int8(uint8(b.At(kk, 0))))
	}
	if got := int32(walkOne(t, matrix.INT8, a, b)); int64(got) != want {
		t.Errorf("INT8 accumulator = %d, want %d (must be exact)", got, want)
	}
}

func TestFP16TensorVsSIMTDiffer(t *testing.T) {
	// The two FP16 paths are different arithmetic; on long reductions
	// they must diverge, which is exactly why the paper treats them as
	// separate datatype setups.
	const k = 512
	a16 := matrix.New(matrix.FP16, 1, k)
	b16 := matrix.New(matrix.FP16, k, 1)
	matrix.FillGaussian(a16, rng.New(9), 0, 1)
	matrix.FillGaussian(b16, rng.New(10), 0, 1)
	aT := matrix.New(matrix.FP16T, 1, k)
	bT := matrix.New(matrix.FP16T, k, 1)
	copy(aT.Bits, a16.Bits)
	copy(bT.Bits, b16.Bits)

	simt := softfloat.F16ToF32(uint16(walkOne(t, matrix.FP16, a16, b16)))
	tensor := softfloat.F32FromBits(walkOne(t, matrix.FP16T, aT, bT))
	if simt == tensor {
		t.Errorf("FP16 SIMT and tensor-core accumulation should differ on long reductions (both %v)", simt)
	}
}
