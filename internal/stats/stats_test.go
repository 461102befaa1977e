package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean broken")
	}
}

func TestStd(t *testing.T) {
	if Std([]float64{5}) != 0 {
		t.Error("Std of singleton")
	}
	// Population std of {2,4,4,4,5,5,7,9} is 2.
	if !almostEqual(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2) {
		t.Errorf("Std = %v, want 2", Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}))
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Error("Min/Max broken")
	}
}

func TestMinPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5}
	for q, want := range cases {
		if got := Quantile(xs, q); !almostEqual(got, want) {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !almostEqual(got, 3) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
	// Input is not mutated.
	orig := []float64{5, 1, 3}
	Quantile(orig, 0.5)
	if orig[0] != 5 || orig[1] != 1 || orig[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(a%101) / 100
		q2 := float64(b%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		return Quantile(xs, q1) <= Quantile(xs, q2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 {
		t.Error("empty summary has N != 0")
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	s = Summarize(xs)
	if s.N != 10 || s.Min != 1 || s.Max != 10 || !almostEqual(s.Avg, 5.5) {
		t.Errorf("Summarize = %+v", s)
	}
	if s.Q5 >= s.Avg || s.Q95 <= s.Avg {
		t.Errorf("quantiles out of order: %+v", s)
	}
}

func TestSummarizeOrderingProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Restrict to the magnitudes the library actually sees
			// (nanosecond-scale skews); Mean overflows near ±MaxFloat64.
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e12))
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Q5 && s.Q5 <= s.Q95 && s.Q95 <= s.Max &&
			s.Min <= s.Avg && s.Avg <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.5, 1.5, 1.6, 2.5, -1, 10}, 0, 3, 3)
	if h.Total != 6 {
		t.Errorf("Total = %d", h.Total)
	}
	if h.Under != 1 || h.Over != 1 {
		t.Errorf("Under/Over = %d/%d", h.Under, h.Over)
	}
	want := []int{1, 2, 1}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], c)
		}
	}
	if !almostEqual(h.BinCenter(0), 0.5) {
		t.Errorf("BinCenter(0) = %v", h.BinCenter(0))
	}
	if h.MaxCount() != 2 {
		t.Errorf("MaxCount = %d", h.MaxCount())
	}
}

func TestHistogramBoundary(t *testing.T) {
	h := NewHistogram(nil, 0, 10, 10)
	h.Add(0) // inclusive low edge
	h.Add(10)
	if h.Counts[0] != 1 || h.Over != 1 {
		t.Error("boundary handling wrong")
	}
}

func TestHistogramCountConservationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		h := NewHistogram(xs, -100, 100, 7)
		sum := h.Under + h.Over
		for _, c := range h.Counts {
			sum += c
		}
		return sum == len(xs) && h.Total == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuantileSortedAgainstSortCheck(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if Quantile(xs, 0.5) != QuantileSorted(sorted, 0.5) {
		t.Error("Quantile disagrees with QuantileSorted")
	}
}

// TestSummarizeScaledDifferential pins SummarizeScaled's contract: for any
// int64 input and positive scale, it equals Summarize over the converted
// floats bit for bit — not approximately. The integer path only reorders a
// sort key, never a float operation, so == is the right comparison.
func TestSummarizeScaledDifferential(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	cases := [][]int64{
		{},
		{42},
		{-5, -5, -5},
		{1 << 62, -(1 << 62), 0, 999, -999},
	}
	for n := 1; n <= 4; n++ { // sizes around the quantile index edges
		c := make([]int64, n)
		for i := range c {
			c[i] = rnd.Int63n(20001) - 10000
		}
		cases = append(cases, c)
	}
	for i := 0; i < 50; i++ {
		n := 1 + rnd.Intn(700)
		c := make([]int64, n)
		for j := range c {
			switch rnd.Intn(10) {
			case 0: // far outlier, sign included
				c[j] = rnd.Int63() - (1 << 62)
			case 1: // duplicate-heavy cluster
				c[j] = int64(rnd.Intn(4)) * 100
			default: // skew-scale picoseconds
				c[j] = rnd.Int63n(2_000_000) - 1_000_000
			}
		}
		cases = append(cases, c)
	}
	for i := 0; i < 10; i++ { // dense skews: sortKeys' counting pass
		n := 128 + rnd.Intn(2000)
		span, lo := rnd.Int63n(int64(n)), rnd.Int63n(2_000_000)-1_000_000
		c := make([]int64, n)
		for j := range c {
			c[j] = lo + rnd.Int63n(span+1)
		}
		cases = append(cases, c)
	}
	for ci, c := range cases {
		for _, scale := range []float64{1, 1000, 3.5} {
			floats := make([]float64, len(c))
			for i, v := range c {
				floats[i] = float64(v) / scale
			}
			want := Summarize(floats)
			got := SummarizeScaled(append([]int64(nil), c...), scale)
			if got != want {
				t.Errorf("case %d scale %v: SummarizeScaled = %+v, Summarize = %+v", ci, scale, got, want)
			}
		}
	}
}

// TestSummarizeScaledSortsInPlace documents the in-place contract callers
// rely on for buffer reuse.
func TestSummarizeScaledSortsInPlace(t *testing.T) {
	xs := []int64{3, -1, 2}
	SummarizeScaled(xs, 1)
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		t.Fatalf("input not sorted in place: %v", xs)
	}
}

// TestSortKeysAllRegimes drives sortKeys through each of its paths —
// small-input pdqsort, all-equal early out, the dense counting pass (span
// below n, down to its edge at span n−1), 1/2/3 radix passes (odd pass
// counts exercise the scratch copy-back; span n is the first radix case),
// and the wide-range fallback — against slices.Sort as the oracle.
func TestSortKeysAllRegimes(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	spans := []int64{0, 1 << 8, 1 << 14, 1 << 25, 1 << 32, 1 << 60}
	for _, n := range []int{3, 127, 128, 700, 4096} {
		for _, span := range spans {
			xs := make([]int64, n)
			base := rnd.Int63n(1 << 40)
			for i := range xs {
				if span == 0 {
					xs[i] = base
				} else {
					xs[i] = base - span/2 + rnd.Int63n(span)
				}
			}
			want := append([]int64(nil), xs...)
			slices.Sort(want)
			sortKeys(xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("n=%d span=%d: sortKeys order differs from slices.Sort", n, span)
			}
		}
	}
	// Spans at the counting pass's edge: n−1 takes it, n takes radix. Both
	// ends are present, so the span is exact.
	for _, n := range []int{128, 700, 4096} {
		for _, span := range []int64{int64(n) - 1, int64(n)} {
			xs := make([]int64, n)
			lo := rnd.Int63n(1<<40) - 1<<39
			for i := range xs {
				xs[i] = lo + rnd.Int63n(span+1)
			}
			xs[0], xs[n-1] = lo, lo+span
			want := append([]int64(nil), xs...)
			slices.Sort(want)
			sortKeys(xs)
			if !slices.Equal(xs, want) {
				t.Fatalf("n=%d span=%d: sortKeys order differs from slices.Sort", n, span)
			}
		}
	}
	// Negative-heavy input crossing zero (the signed inter-skew shape).
	xs := make([]int64, 500)
	for i := range xs {
		xs[i] = rnd.Int63n(4000) - 2000
	}
	want := append([]int64(nil), xs...)
	slices.Sort(want)
	sortKeys(xs)
	if !slices.Equal(xs, want) {
		t.Fatal("signed input: sortKeys order differs from slices.Sort")
	}
}
