// Package stats provides the descriptive statistics used by the paper's
// evaluation: min/max, averages, standard deviations, quantiles (5% and 95%
// feature throughout Section 4), histograms and the five-operator summaries
// {min, q5, avg, q95, max} used in Tables 1–2 and the box plots of
// Figs. 15–16.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Summary is the five-operator summary the paper reports for skew
// distributions.
type Summary struct {
	N   int
	Min float64
	Q5  float64
	Avg float64
	Q95 float64
	Max float64
	Std float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary
// with N == 0.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return Summary{
		N:   len(sorted),
		Min: sorted[0],
		Q5:  QuantileSorted(sorted, 0.05),
		Avg: Mean(sorted),
		Q95: QuantileSorted(sorted, 0.95),
		Max: sorted[len(sorted)-1],
		Std: Std(sorted),
	}
}

// SummarizeScaled computes Summarize(xs[i]/scale for all i) without ever
// materializing the float slice: it sorts the raw integers in place and
// streams the conversion in ascending order. The result is bit-identical
// to the float path for every input, because x ↦ float64(x)/scale is
// monotone non-decreasing over int64 (int→float conversion and division
// by a positive constant both preserve order), so the converted sequence
// IS the sorted float sequence — same summation order for Avg/Std, same
// order statistics for the quantiles. TestSummarizeScaledDifferential
// pins this.
//
// Campaign runs summarize two skew vectors per run; sorting int64 keys
// instead of NaN-aware floats and skipping the copy is a measurable slice
// of the per-run budget. The input slice is sorted in place so callers
// can reuse one scratch buffer across vectors.
func SummarizeScaled[T ~int64](xs []T, scale float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sortKeys(xs)
	n := len(xs)
	conv := func(v T) float64 { return float64(v) / scale }
	var sum float64
	for _, v := range xs {
		sum += conv(v)
	}
	mean := sum / float64(n)
	std := 0.0
	if n >= 2 {
		var ss float64
		for _, v := range xs {
			d := conv(v) - mean
			ss += d * d
		}
		std = math.Sqrt(ss / float64(n))
	}
	quantile := func(q float64) float64 {
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			return conv(xs[lo])
		}
		frac := pos - float64(lo)
		return conv(xs[lo])*(1-frac) + conv(xs[hi])*frac
	}
	return Summary{
		N:   n,
		Min: conv(xs[0]),
		Q5:  quantile(0.05),
		Avg: mean,
		Q95: quantile(0.95),
		Max: conv(xs[n-1]),
		Std: std,
	}
}

// Radix parameters for sortKeys: 11-bit digits keep the counting array at
// 8 KiB (stack-friendly), and the 3-pass cap bounds radix to ranges up to
// 33 bits — beyond that comparison sort wins and the data has left the
// "clustered skews" regime radix is here for anyway.
const (
	radixBits      = 11
	radixBuckets   = 1 << radixBits
	radixMaxPasses = 3
)

// sortKeys sorts integer keys ascending. Skew vectors concentrate in a
// span of a few thousand picoseconds, so after rebasing at the minimum
// they need one or two LSD counting passes — O(n) instead of O(n log n),
// which is the difference between the sort dominating a campaign run's
// summary cost and it disappearing. Keys denser than one per value of
// their span (a wide grid's skews) are counted once and written back in
// order, with no scratch copy. Inputs that are tiny or genuinely
// wide-range fall back to pdqsort.
func sortKeys[T ~int64](xs []T) {
	if len(xs) < 128 {
		slices.Sort(xs)
		return
	}
	mn, mx := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	// Rebase to [0, span]; uint64 subtraction is exact for any int64 pair
	// with mx >= mn, and preserves order on the rebased keys.
	span := uint64(mx) - uint64(mn)
	passes := (bits.Len64(span) + radixBits - 1) / radixBits
	if passes == 0 {
		return // all equal
	}
	if span < uint64(len(xs)) {
		count := make([]uint32, span+1)
		for _, v := range xs {
			count[uint64(v)-uint64(mn)]++
		}
		i := 0
		for k, c := range count {
			v := mn + T(k)
			for ; c > 0; c-- {
				xs[i] = v
				i++
			}
		}
		return
	}
	if passes > radixMaxPasses {
		slices.Sort(xs)
		return
	}
	scratch := make([]T, len(xs))
	src, dst := xs, scratch
	var count [radixBuckets]uint32
	for p := 0; p < passes; p++ {
		shift := uint(p * radixBits)
		clear(count[:])
		for _, v := range src {
			count[((uint64(v)-uint64(mn))>>shift)&(radixBuckets-1)]++
		}
		var sum uint32
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		for _, v := range src {
			d := ((uint64(v) - uint64(mn)) >> shift) & (radixBuckets - 1)
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(xs, scratch)
	}
}

// String formats the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3f q5=%.3f avg=%.3f q95=%.3f max=%.3f", s.N, s.Min, s.Q5, s.Avg, s.Q95, s.Max)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs (0 for fewer than two
// values).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}

// Min returns the minimum of xs; it panics on empty input.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on empty input.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies and sorts its input.
func Quantile(xs []float64, q float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q)
}

// QuantileSorted is Quantile over an already-sorted slice.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		panic("stats: quantile of empty slice")
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Histogram is a fixed-width-bin histogram over [Lo, Hi).
type Histogram struct {
	Lo, Hi   float64
	BinWidth float64
	Counts   []int
	// Under and Over count values falling outside [Lo, Hi).
	Under, Over int
	Total       int
}

// NewHistogram builds a histogram of xs with the given number of bins over
// [lo, hi). bins must be positive and hi > lo.
func NewHistogram(xs []float64, lo, hi float64, bins int) *Histogram {
	if bins <= 0 || hi <= lo {
		panic("stats: invalid histogram parameters")
	}
	h := &Histogram{
		Lo:       lo,
		Hi:       hi,
		BinWidth: (hi - lo) / float64(bins),
		Counts:   make([]int, bins),
	}
	for _, x := range xs {
		h.Add(x)
	}
	return h
}

// Add records one value.
func (h *Histogram) Add(x float64) {
	h.Total++
	switch {
	case x < h.Lo:
		h.Under++
	case x >= h.Hi:
		h.Over++
	default:
		idx := int((x - h.Lo) / h.BinWidth)
		if idx >= len(h.Counts) { // guard against FP edge
			idx = len(h.Counts) - 1
		}
		h.Counts[idx]++
	}
}

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth
}

// MaxCount returns the largest bin count (including Under/Over).
func (h *Histogram) MaxCount() int {
	m := h.Under
	if h.Over > m {
		m = h.Over
	}
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	return m
}
