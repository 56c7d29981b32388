package matrix

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
)

// This file keeps the original packed-key placement sort as a test-only
// reference oracle: every element's order key and index packed into one
// uint64 (key high, index low), a full sort of the packed words, then a
// per-element membership table for the k smallest. The production sort
// (Argsort + PlaceSorted) must produce the same bits on every input.

// orderKeyFn returns the raw-pattern → sortable-key mapping for a
// datatype, one branch per element.
func orderKeyFn(dt DType) func(uint32) uint32 {
	switch dt {
	case FP32:
		return func(b uint32) uint32 {
			if b&0x80000000 != 0 {
				return ^b
			}
			return b | 0x80000000
		}
	case FP16, FP16T, BF16T:
		return func(b uint32) uint32 {
			h := uint16(b)
			if h&0x8000 != 0 {
				return uint32(^h)
			}
			return uint32(h) | 0x8000
		}
	case INT8:
		return func(b uint32) uint32 { return uint32(uint8(b)) ^ 0x80 }
	default:
		panic("matrix: unknown dtype")
	}
}

// sortKeyIdx sorts packed (key<<32 | index) entries by a stable 2-pass
// 16-bit LSD radix over the key field, or by a comparison sort below
// 2^14 entries; both equal a full uint64 sort of the packed words.
func sortKeyIdx(keys []uint64) {
	if len(keys) < 1<<14 {
		slices.Sort(keys)
		return
	}
	tmp := make([]uint64, len(keys))
	var count [1 << 16]int32
	for pass := 0; pass < 2; pass++ {
		shift := uint(32 + 16*pass)
		clear(count[:])
		for _, k := range keys {
			count[(k>>shift)&0xFFFF]++
		}
		var sum int32
		for b := range count {
			c := count[b]
			count[b] = sum
			sum += c
		}
		for _, k := range keys {
			b := (k >> shift) & 0xFFFF
			tmp[count[b]] = k
			count[b]++
		}
		keys, tmp = tmp, keys
	}
}

// partialSortInto reorders the elements so that the k smallest values,
// sorted ascending, occupy the positions listed in dst[:k]; the
// remaining elements fill the remaining positions of dst in their
// original relative order. dst must be a permutation of all indices.
func partialSortInto(m *Matrix, frac float64, dst []int) {
	n := len(m.Bits)
	k := countOf(frac, n)
	if k == 0 {
		return
	}
	key := orderKeyFn(m.DType)
	keys := make([]uint64, n)
	for i, b := range m.Bits {
		keys[i] = uint64(key(b))<<32 | uint64(uint32(i))
	}
	sortKeyIdx(keys)
	isLowest := make([]bool, n)
	out := make([]uint32, n)
	for p := 0; p < k; p++ {
		i := int(uint32(keys[p]))
		isLowest[i] = true
		out[dst[p]] = m.Bits[i]
	}
	p := k
	for i := 0; i < n; i++ {
		if isLowest[i] {
			continue
		}
		out[dst[p]] = m.Bits[i]
		p++
	}
	copy(m.Bits, out)
}

func rowMajorOrder(rows, cols int) []int {
	out := make([]int, rows*cols)
	for i := range out {
		out[i] = i
	}
	return out
}

func colMajorOrder(rows, cols int) []int {
	out := make([]int, 0, rows*cols)
	for j := 0; j < cols; j++ {
		for i := 0; i < rows; i++ {
			out = append(out, i*cols+j)
		}
	}
	return out
}

func refSortIntoRows(m *Matrix, frac float64) {
	partialSortInto(m, frac, rowMajorOrder(m.Rows, m.Cols))
}

func refSortIntoCols(m *Matrix, frac float64) {
	partialSortInto(m, frac, colMajorOrder(m.Rows, m.Cols))
}

func refSortWithinRows(m *Matrix, frac float64) {
	dst := rowMajorOrder(1, m.Cols)
	for i := 0; i < m.Rows; i++ {
		sub := &Matrix{DType: m.DType, Rows: 1, Cols: m.Cols, Bits: m.Row(i)}
		partialSortInto(sub, frac, dst)
	}
}

// specialPatterns returns raw patterns at the edges of each datatype's
// order: signed zeros, infinities, NaN payloads of both signs,
// subnormals and the extreme finite values (INT8: every pattern).
func specialPatterns(dt DType) []uint32 {
	switch dt {
	case FP32:
		return []uint32{0, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00000, 0x7F800001,
			0xFFC00001, 0xFFFFFFFF, 0x00000001, 0x807FFFFF, 0x00400000, 0x7F7FFFFF, 0xFF7FFFFF,
			0x3F800000, 0xBF800000}
	case FP16, FP16T:
		return []uint32{0, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0x7C01, 0xFE01, 0xFFFF,
			0x0001, 0x83FF, 0x0200, 0x7BFF, 0xFBFF, 0x3C00, 0xBC00}
	case BF16T:
		return []uint32{0, 0x8000, 0x7F80, 0xFF80, 0x7FC0, 0x7F81, 0xFFC1, 0xFFFF,
			0x0001, 0x807F, 0x0040, 0x7F7F, 0xFF7F, 0x3F80, 0xBF80}
	case INT8:
		out := make([]uint32, 256)
		for i := range out {
			out[i] = uint32(i)
		}
		return out
	}
	panic("matrix: unknown dtype")
}

// sortInputs builds the oracle's input families for one datatype and
// shape: Gaussian, all-equal, a constant with sparse bit flips (long
// runs of ties), and special values mixed with uniformly random raw
// patterns of the datatype's width.
func sortInputs(dt DType, rows, cols int, seed uint64) map[string]*Matrix {
	src := rng.New(seed)
	gauss := New(dt, rows, cols)
	FillGaussian(gauss, src, 0, DefaultStd(dt))
	equal := New(dt, rows, cols)
	FillConstant(equal, 3)
	flips := New(dt, rows, cols)
	FillConstant(flips, -5)
	RandomBitFlips(flips, src, 0.01)
	special := New(dt, rows, cols)
	pats := specialPatterns(dt)
	mask := uint32(uint64(1)<<dt.Width() - 1)
	for i := range special.Bits {
		if src.Intn(2) == 0 {
			special.Bits[i] = pats[src.Intn(len(pats))]
		} else {
			special.Bits[i] = src.Uint32() & mask
		}
	}
	return map[string]*Matrix{"gaussian": gauss, "equal": equal, "flips": flips, "special": special}
}

// TestSortMatchesReference checks the radix argsort plus placement
// against the packed-key oracle for every datatype, shape, fraction and
// input family, both through the public sorts and by placing several
// fractions from one shared argsort.
func TestSortMatchesReference(t *testing.T) {
	shapes := [][2]int{{256, 256}, {7, 33}, {1, 300}, {300, 1}}
	for _, dt := range ExtendedDTypes {
		for si, sh := range shapes {
			rows, cols := sh[0], sh[1]
			n := float64(rows * cols)
			fracs := []float64{0, 1 / n, 0.25, 0.5, 0.75, 1}
			for name, m := range sortInputs(dt, rows, cols, uint64(si)*31+uint64(dt)) {
				ord, rowOrd := Argsort(m), ArgsortRows(m)
				for _, f := range fracs {
					tag := fmt.Sprintf("%v %dx%d %s frac=%v", dt, rows, cols, name, f)
					kinds := []struct {
						kind  string
						ref   func(*Matrix, float64)
						sort  func(*Matrix, float64)
						place func(*Matrix)
					}{
						{"rows", refSortIntoRows, SortIntoRows,
							func(c *Matrix) { PlaceSorted(c, ord, f, false) }},
						{"cols", refSortIntoCols, SortIntoCols,
							func(c *Matrix) { PlaceSorted(c, ord, f, true) }},
						{"withinrows", refSortWithinRows, SortWithinRows,
							func(c *Matrix) { PlaceSortedWithinRows(c, rowOrd, f) }},
					}
					for _, k := range kinds {
						want := m.Clone()
						k.ref(want, f)
						got := m.Clone()
						k.sort(got, f)
						if !got.Equal(want) {
							t.Fatalf("%s %s: sort differs from the reference", tag, k.kind)
						}
						placed := m.Clone()
						k.place(placed)
						if !placed.Equal(want) {
							t.Fatalf("%s %s: placement from the shared argsort differs from the reference", tag, k.kind)
						}
					}
				}
			}
		}
	}
}

// TestSortKeyMatchesReference checks the branchless production key
// against the per-datatype reference keys on every 8- and 16-bit
// pattern and on FP32 specials plus random words.
func TestSortKeyMatchesReference(t *testing.T) {
	for _, dt := range ExtendedDTypes {
		ref, key := orderKeyFn(dt), keyFor(dt)
		check := func(b uint32) {
			if got, want := key.of(b), ref(b); got != want {
				t.Fatalf("%v: key(%#x) = %#x, reference %#x", dt, b, got, want)
			}
		}
		if dt != FP32 {
			for b := uint32(0); b < 1<<dt.Width(); b++ {
				check(b)
			}
			continue
		}
		for _, b := range specialPatterns(FP32) {
			check(b)
		}
		src := rng.New(11)
		for i := 0; i < 1<<16; i++ {
			check(src.Uint32())
		}
		check(math.Float32bits(float32(math.Copysign(0, -1))))
	}
}
