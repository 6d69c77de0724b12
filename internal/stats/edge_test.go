package stats

import (
	"math"
	"testing"
)

// TestMeanOfNothing: the mean of no samples is NaN.
func TestMeanOfNothing(t *testing.T) {
	if m := Mean(nil); !math.IsNaN(m) {
		t.Fatalf("Mean(nil) = %v, want NaN", m)
	}
}

// TestSummarizeNonFinite: samples no fence can hold (all +Inf: the
// quartile range is NaN) summarize to their own extremes, none an
// outlier.
func TestSummarizeNonFinite(t *testing.T) {
	inf := math.Inf(1)
	s := Summarize([]float64{inf, inf})
	if s.Min != inf || s.Max != inf || len(s.Outliers) != 0 {
		t.Fatalf("Summarize(+Inf, +Inf) = %+v, want Min = Max = +Inf and no outliers", s)
	}
}
