package matrix

import (
	"math"
	"math/bits"

	"repro/internal/bitops"
	"repro/internal/rng"
)

// This file implements the input transformations of §IV: placement
// (partial sorting variants), sparsity, and bit-level edits. Transforms
// mutate the matrix in place; callers clone first if they need the
// original.

// clampFrac clamps a fraction to [0, 1]; NaN maps to 0.
func clampFrac(f float64) float64 {
	if !(f > 0) {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// countOf returns round(frac·n) clamped to [0, n].
func countOf(frac float64, n int) int {
	k := int(clampFrac(frac)*float64(n) + 0.5)
	if k > n {
		k = n
	}
	return k
}

// sortKey maps a datatype's raw element patterns to unsigned keys whose
// order is the decoded numeric order, without decoding. For the
// sign-magnitude FP formats negative values flip every bit of their
// width and the rest set the sign bit; INT8 just flips the sign bit of
// the two's-complement pattern. NaN payloads order arbitrarily but
// deterministically, beyond the infinity of their sign. One branchless
// form covers every datatype, so the per-element key inlines into the
// sort loops.
type sortKey struct {
	mask  uint32 // the datatype's storage width
	sign  uint32 // its sign bit
	neg   uint32 // extra flip for negative values: mask for FP, 0 for INT8
	shift uint   // width - 1
}

func keyFor(dt DType) sortKey {
	w := dt.Width()
	k := sortKey{mask: uint32(uint64(1)<<w - 1), sign: 1 << (w - 1), shift: uint(w - 1)}
	if dt.IsFloat() {
		k.neg = k.mask
	}
	return k
}

func (k sortKey) of(b uint32) uint32 {
	b &= k.mask
	return b ^ (k.sign | k.neg&-(b>>k.shift))
}

// radix is a stable LSD radix argsort over 8-bit digits of the sort
// key: one pass per byte of the datatype's width (INT8 1, the 16-bit
// formats 2, FP32 4), skipping passes whose digit is the same for every
// element. The first pass reads the elements and the last writes only
// indices, so between them entries pack (key<<32 | index): one pass
// needs no scratch, two need buf, more need tmp too. Entries start in
// index order, so stability makes the result ordered by (key, index) —
// a total order, since indices are unique. The scratch is sized on
// first use and reused for later (equal or shorter) slices.
type radix struct {
	key      sortKey
	passes   int
	buf, tmp []uint64
}

func newRadix(dt DType) *radix {
	return &radix{key: keyFor(dt), passes: dt.Width() / 8}
}

// scratch returns a buffer of n entries, allocating it on first use.
func scratch(b *[]uint64, n int) []uint64 {
	if len(*b) < n {
		*b = make([]uint64, n)
	}
	return (*b)[:n]
}

// argsort writes the stable ascending order of elems into ord.
func (r *radix) argsort(elems, ord []uint32) {
	n := len(elems)
	if n == 0 {
		return
	}
	// One counting pass fills the histogram of every digit in use.
	var hist [4][256]uint32
	key := r.key
	switch r.passes {
	case 1:
		for _, b := range elems {
			hist[0][uint8(key.of(b))]++
		}
	case 2:
		for _, b := range elems {
			k := key.of(b)
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
		}
	default:
		for _, b := range elems {
			k := key.of(b)
			hist[0][uint8(k)]++
			hist[1][uint8(k>>8)]++
			hist[2][uint8(k>>16)]++
			hist[3][uint8(k>>24)]++
		}
	}
	// Digits shared by every element leave the order unchanged; the
	// others become exclusive prefix sums.
	var shifts [4]uint
	np := 0
	k0 := key.of(elems[0])
	for p := 0; p < r.passes; p++ {
		shift := 8 * uint(p)
		h := &hist[p]
		if h[uint8(k0>>shift)] == uint32(n) {
			continue
		}
		var sum uint32
		for d, c := range h {
			h[d] = sum
			sum += c
		}
		shifts[np] = shift
		np++
	}
	if np == 0 {
		for i := range ord {
			ord[i] = uint32(i)
		}
		return
	}
	h, shift := &hist[shifts[0]/8], shifts[0]
	if np == 1 {
		for i, b := range elems {
			d := uint8(key.of(b) >> shift)
			ord[h[d]] = uint32(i)
			h[d]++
		}
		return
	}
	src := scratch(&r.buf, n)
	for i, b := range elems {
		k := key.of(b)
		d := uint8(k >> shift)
		src[h[d]] = uint64(k)<<32 | uint64(i)
		h[d]++
	}
	var dst []uint64
	if np > 2 {
		dst = scratch(&r.tmp, n)
	}
	for p := 1; p < np-1; p++ {
		h, shift := &hist[shifts[p]/8], 32+shifts[p]
		for _, e := range src {
			d := uint8(e >> shift)
			dst[h[d]] = e
			h[d]++
		}
		src, dst = dst, src
	}
	h, shift = &hist[shifts[np-1]/8], 32+shifts[np-1]
	for _, e := range src {
		d := uint8(e >> shift)
		ord[h[d]] = uint32(e)
		h[d]++
	}
}

// Argsort returns the stable ascending order of m's elements in
// row-major index space: ord[p] is the index of the p-th smallest
// value, ties broken by index. The order is the one every placement
// sort (SortIntoRows, SortIntoCols) uses, so a sweep over sort
// fractions can compute it once and place from it with PlaceSorted.
func Argsort(m *Matrix) []uint32 {
	ord := make([]uint32, len(m.Bits))
	newRadix(m.DType).argsort(m.Bits, ord)
	return ord
}

// ArgsortRows is Argsort applied to every row independently:
// ord[i*Cols+p] is the column of row i's p-th smallest value. It is the
// order SortWithinRows places from (see PlaceSortedWithinRows).
func ArgsortRows(m *Matrix) []uint32 {
	ord := make([]uint32, len(m.Bits))
	r := newRadix(m.DType)
	for i := 0; i < m.Rows; i++ {
		r.argsort(m.Row(i), ord[i*m.Cols:(i+1)*m.Cols])
	}
	return ord
}

// placeSequence fills out[:len(elems)] with the sorted-placement
// sequence: the k smallest values in ascending order (ord[:k]), then
// every other value in its original relative order. An element is
// among the k smallest exactly when its (key, index) pair is at most
// the k-th smallest's, so the rest is found by one branchless compare
// per element. out needs one spare slot past len(elems): the compaction
// writes every element and advances only past the kept ones.
func placeSequence(dt DType, elems, ord []uint32, k int, out []uint32) []uint32 {
	for p, i := range ord[:k] {
		out[p] = elems[i]
	}
	if k == len(elems) {
		return out[:k]
	}
	key := keyFor(dt)
	last := ord[k-1]
	thresh := uint64(key.of(elems[last]))<<32 | uint64(last)
	p := k
	for i, b := range elems {
		_, above := bits.Sub64(thresh, uint64(key.of(b))<<32|uint64(i), 0)
		out[p] = b
		p += int(above)
	}
	return out[:len(elems)]
}

// PlaceSorted applies a partial placement sort (§IV-C) given m's
// argsort: the k = round(frac·n) smallest values, ascending, move to
// the first k positions of the row-major walk (colMajor false, Fig. 5a/
// 5b) or the column-major walk (true, Fig. 5c); the remaining values
// fill the remaining positions of the walk in their original relative
// order. ord must be Argsort of m's current contents.
func PlaceSorted(m *Matrix, ord []uint32, frac float64, colMajor bool) {
	k := countOf(frac, len(m.Bits))
	if k == 0 {
		return
	}
	seq := placeSequence(m.DType, m.Bits, ord, k, make([]uint32, len(m.Bits)+1))
	if !colMajor {
		copy(m.Bits, seq)
		return
	}
	p := 0
	for j := 0; j < m.Cols; j++ {
		for i := 0; i < m.Rows; i++ {
			m.Bits[i*m.Cols+j] = seq[p]
			p++
		}
	}
}

// PlaceSortedWithinRows is PlaceSorted within every row (Fig. 5d):
// each row's round(frac·Cols) smallest values, ascending, move to the
// row's first positions and the rest keep their order. ord must be
// ArgsortRows of m's current contents.
func PlaceSortedWithinRows(m *Matrix, ord []uint32, frac float64) {
	k := countOf(frac, m.Cols)
	if k == 0 {
		return
	}
	out := make([]uint32, m.Cols+1)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		copy(row, placeSequence(m.DType, row, ord[i*m.Cols:(i+1)*m.Cols], k, out))
	}
}

// SortIntoRows partially sorts the matrix row-wise (§IV-C, Fig. 5a/5b):
// the lowest frac of values are sorted into the first frac of row-major
// indices.
func SortIntoRows(m *Matrix, frac float64) {
	if countOf(frac, len(m.Bits)) > 0 {
		PlaceSorted(m, Argsort(m), frac, false)
	}
}

// SortIntoCols partially sorts the matrix column-wise (§IV-C, Fig. 5c):
// the lowest frac of values are sorted into the first frac of
// column-major indices.
func SortIntoCols(m *Matrix, frac float64) {
	if countOf(frac, len(m.Bits)) > 0 {
		PlaceSorted(m, Argsort(m), frac, true)
	}
}

// SortWithinRows partially sorts each row independently (§IV-C,
// Fig. 5d): within every row, the lowest frac of that row's values are
// sorted into the row's first indices.
func SortWithinRows(m *Matrix, frac float64) {
	if countOf(frac, m.Cols) > 0 {
		PlaceSortedWithinRows(m, ArgsortRows(m), frac)
	}
}

// SortFully sorts every element ascending in row-major order, the
// starting point of the sparsity-after-sorting experiment (Fig. 6b).
func SortFully(m *Matrix) { SortIntoRows(m, 1) }

// DeltaDenseFrac is the density cutoff shared by the tracked
// transforms and activity's incremental delta scans: a touched list
// longer than len(Bits)/DeltaDenseFrac costs more to sort and patch
// than a full streaming rescan, so the tracked transforms decline to
// enumerate a set they can tell upfront will be that dense — the
// transform is still applied in full with identical RNG consumption,
// only the tracking is skipped.
const DeltaDenseFrac = 8

// Sparsify sets a uniformly random frac of the elements to zero
// (§IV-D, Fig. 6a/6b). Positions are chosen without replacement (a
// partial Fisher–Yates over the index space — only the first k steps
// of the shuffle run) so the realized sparsity is exact up to rounding.
func Sparsify(m *Matrix, src *rng.Source, frac float64) {
	SparsifyTouched(m, src, frac)
}

// SparsifyTouched is Sparsify, additionally returning the element
// indices it zeroed so callers can update derived statistics
// incrementally. ok is false when the touched set is not enumerated —
// everything zeroed, or dense past DeltaDenseFrac; the RNG consumption
// is identical to Sparsify in every case.
func SparsifyTouched(m *Matrix, src *rng.Source, frac float64) (touched []int32, ok bool) {
	n := len(m.Bits)
	k := countOf(frac, n)
	if k == 0 {
		return nil, true
	}
	if k == n {
		Zero(m)
		return nil, false
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for s := 0; s < k; s++ {
		j := s + src.Intn(n-s)
		idx[s], idx[j] = idx[j], idx[s]
		m.Bits[idx[s]] = 0
	}
	if DeltaDenseFrac*k > n {
		return nil, false
	}
	// The shuffle prefix is exactly the set of zeroed positions; copy
	// it so the n-sized backing array can be collected.
	return append([]int32(nil), idx[:k]...), true
}

// RandomBitFlips flips each bit of each element independently with
// probability p (§IV-B, Fig. 4a). Starting from a constant-filled
// matrix, p = 0 leaves all elements identical and p = 0.5 makes them
// independently random.
//
// Dense flip probabilities draw one threshold-compared word per bit;
// sparse ones (p < ¼) jump between flips with geometric skips, so the
// work scales with the number of flips instead of the number of bits.
// Both are exact Bernoulli processes per bit.
func RandomBitFlips(m *Matrix, src *rng.Source, p float64) {
	RandomBitFlipsTouched(m, src, p)
}

// RandomBitFlipsTouched is RandomBitFlips, additionally returning the
// element indices whose bits it flipped (non-decreasing, duplicates
// possible when one element takes several flips) so callers can update
// derived statistics incrementally. ok is false when the touched set
// is not enumerated — the dense paths (p ≥ ¼), and flip rates whose
// expected flip count already exceeds the DeltaDenseFrac cutoff, where
// nearly every element changes anyway. RNG consumption is identical to
// RandomBitFlips in every case.
func RandomBitFlipsTouched(m *Matrix, src *rng.Source, p float64) (touched []int32, ok bool) {
	p = clampFrac(p)
	if p == 0 {
		return nil, true
	}
	width := m.DType.Width()
	if p >= 1 {
		mask := bitops.LowMask(width)
		for i := range m.Bits {
			m.Bits[i] ^= mask
		}
		return nil, false
	}
	if p >= 0.25 {
		// One 63-bit threshold compare per bit.
		thresh := uint64(p * (1 << 63))
		for i := range m.Bits {
			var flip uint32
			for b := 0; b < width; b++ {
				if src.Uint64()>>1 < thresh {
					flip |= 1 << uint(b)
				}
			}
			m.Bits[i] ^= flip
		}
		return nil, false
	}
	// Geometric skipping over the matrix's global bit stream: the gap
	// between successive flips is Geometric(p) by inversion sampling.
	// The expected list length is p·width per element; when that is
	// already past the density cutoff, flip without enumerating.
	track := DeltaDenseFrac*p*float64(width) <= 1
	total := len(m.Bits) * width
	shift := uint(bits.TrailingZeros(uint(width))) // widths are powers of two
	mask := width - 1
	lnq := math.Log(1 - p)
	pos := 0
	for {
		skip := math.Floor(math.Log(1-src.Float64()) / lnq)
		if skip >= float64(total-pos) {
			return touched, track
		}
		pos += int(skip)
		m.Bits[pos>>shift] ^= 1 << uint(pos&mask)
		if track {
			touched = append(touched, int32(pos>>shift))
		}
		pos++
		if pos >= total {
			return touched, track
		}
	}
}

// RandomizeLSBs replaces the n least significant bits of every element
// with independent random bits (§IV-B, Fig. 4b).
func RandomizeLSBs(m *Matrix, src *rng.Source, n int) {
	width := m.DType.Width()
	if n <= 0 {
		return
	}
	if n > width {
		n = width
	}
	mask := bitops.LowMask(n)
	for i := range m.Bits {
		m.Bits[i] = (m.Bits[i] &^ mask) | (src.Uint32() & mask)
	}
}

// RandomizeMSBs replaces the n most significant bits of every element
// with independent random bits (§IV-B, Fig. 4c).
func RandomizeMSBs(m *Matrix, src *rng.Source, n int) {
	width := m.DType.Width()
	if n <= 0 {
		return
	}
	mask := bitops.HighMask(n, width)
	for i := range m.Bits {
		m.Bits[i] = (m.Bits[i] &^ mask) | (src.Uint32() & mask)
	}
}

// ZeroLSBs clears the n least significant bits of every element
// (§IV-D "sparsity in physical structure", Fig. 6c).
func ZeroLSBs(m *Matrix, n int) {
	if n <= 0 {
		return
	}
	width := m.DType.Width()
	if n > width {
		n = width
	}
	mask := ^bitops.LowMask(n)
	for i := range m.Bits {
		m.Bits[i] &= mask
	}
}

// ZeroMSBs clears the n most significant bits of every element
// (§IV-D, Fig. 6d).
func ZeroMSBs(m *Matrix, n int) {
	if n <= 0 {
		return
	}
	width := m.DType.Width()
	mask := ^bitops.HighMask(n, width)
	for i := range m.Bits {
		m.Bits[i] &= mask
	}
}

// Zero clears the whole matrix (the paper zeroes the C matrix).
func Zero(m *Matrix) {
	for i := range m.Bits {
		m.Bits[i] = 0
	}
}
