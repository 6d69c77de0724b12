package stats

import (
	"math"
	"sort"
)

// Summary is the five-number summary plus mean and outliers, matching the
// boxplots in the paper's Figures 7 and 8 (min, lower quartile, median,
// upper quartile, max, and 1.5*IQR outliers).
type Summary struct {
	N        int
	Mean     float64
	Min      float64
	Q1       float64
	Median   float64
	Q3       float64
	Max      float64
	Outliers []float64
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the common default).
// xs need not be sorted. Returns NaN when xs is empty.
func Quantile(xs []float64, q float64) float64 { return Quantiles(xs, q)[0] }

// quantileSorted is Quantile on already-sorted input, skipping the copy and
// sort. Callers that hold a sorted slice (Summarize sorts once and needs
// three quantiles) use this to avoid re-copying and re-sorting per call.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Quantiles returns the q-quantile of xs for every q in qs, as Quantile
// does, sorting one copy of xs for all of them. Each is NaN when xs is
// empty.
func Quantiles(xs []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(xs) == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summarize computes the boxplot summary of xs. Whiskers extend to the most
// extreme points within 1.5*IQR of the quartiles; points beyond are
// reported as outliers (and excluded from Min/Max, as in standard boxplots).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		nan := math.NaN()
		return Summary{Mean: nan, Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1 := quantileSorted(s, 0.25)
	q3 := quantileSorted(s, 0.75)
	iqr := q3 - q1
	loFence := q1 - 1.5*iqr
	hiFence := q3 + 1.5*iqr
	sum := Summary{
		N:      len(s),
		Mean:   Mean(s),
		Q1:     q1,
		Median: quantileSorted(s, 0.5),
		Q3:     q3,
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
	}
	for _, x := range s {
		if x < loFence || x > hiFence {
			sum.Outliers = append(sum.Outliers, x)
			continue
		}
		if x < sum.Min {
			sum.Min = x
		}
		if x > sum.Max {
			sum.Max = x
		}
	}
	if math.IsInf(sum.Min, 1) { // everything was an outlier (degenerate)
		sum.Min, sum.Max = s[0], s[len(s)-1]
		sum.Outliers = nil
	}
	// Whiskers extend outward from the quartiles: when every point on one
	// side of a quartile is an outlier, the whisker collapses onto the
	// quartile rather than crossing it.
	if sum.Min > sum.Q1 {
		sum.Min = sum.Q1
	}
	if sum.Max < sum.Q3 {
		sum.Max = sum.Q3
	}
	return sum
}

// ReductionPercent returns the percentage reduction of got relative to base:
// 100 * (base - got) / base. The paper reports e.g. "EDF reduces the
// runtime of LF by 32.9%".
func ReductionPercent(base, got float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (base - got) / base
}

// IncreasePercent returns 100 * (got - base) / base.
func IncreasePercent(base, got float64) float64 {
	if base == 0 {
		return math.NaN()
	}
	return 100 * (got - base) / base
}
