package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should diverge")
	}
}

func TestNormalMomentsAndTruncation(t *testing.T) {
	g := NewRNG(1)
	const n = 20000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Normal(20, 1)
		if v <= 0 {
			t.Fatal("Normal must be positive")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-20) > 0.1 {
		t.Fatalf("Normal(20,1) mean = %v", mean)
	}
	// Heavy truncation: mean 1, std 10 — all draws still positive.
	for i := 0; i < 1000; i++ {
		if v := g.Normal(1, 10); v <= 0 {
			t.Fatalf("truncated draw %v <= 0", v)
		}
	}
	if v := g.Normal(0, 1); v <= 0 {
		t.Fatal("zero-mean draws still must be positive")
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(2)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		v := g.Exponential(120)
		if v < 0 {
			t.Fatal("Exponential must be non-negative")
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-120) > 3 {
		t.Fatalf("Exponential(120) mean = %v", mean)
	}
}

func TestPickK(t *testing.T) {
	g := NewRNG(3)
	got := g.PickK(nil, 10, 4)
	if len(got) != 4 {
		t.Fatalf("PickK(10,4) len = %d", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("bad pick %v", got)
		}
		seen[v] = true
	}
	if len(g.PickK(nil, 3, 5)) != 3 {
		t.Fatal("PickK must clamp k to n")
	}
}

func TestForkIndependence(t *testing.T) {
	g := NewRNG(4)
	f1 := g.Fork()
	g2 := NewRNG(4)
	f2 := g2.Fork()
	if f1.Float64() != f2.Float64() {
		t.Fatal("forks of identical parents must match")
	}
}

func TestMeanMedianStd(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if m := Mean(xs); m != 3 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Median(xs); m != 3 {
		t.Fatalf("Median = %v", m)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("empty input must give NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	tests := []struct{ q, want float64 }{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75}, {0.75, 3.25}, {-1, 1}, {2, 4},
	}
	for _, tc := range tests {
		if got := Quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile must be NaN")
	}
}

func TestQuantilesMatchesQuantile(t *testing.T) {
	qs := []float64{-1, 0, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2}
	inputs := [][]float64{
		{4, 1, 3, 2},
		{7},
		{2, 2, 2, 2, 2},
		{5, math.NaN(), 1, 3}, // NaN input: whatever Quantile does, match it
	}
	for _, xs := range inputs {
		got := Quantiles(xs, qs...)
		if len(got) != len(qs) {
			t.Fatalf("Quantiles(%v) returned %d values, want %d", xs, len(got), len(qs))
		}
		for i, q := range qs {
			want := Quantile(xs, q)
			same := got[i] == want || (math.IsNaN(got[i]) && math.IsNaN(want))
			if !same {
				t.Errorf("Quantiles(%v)[%v] = %v, Quantile = %v", xs, q, got[i], want)
			}
		}
	}
}

func TestQuantilesEmpty(t *testing.T) {
	for _, got := range Quantiles(nil, 0, 0.5, 1) {
		if !math.IsNaN(got) {
			t.Fatalf("empty Quantiles must be all-NaN, got %v", got)
		}
	}
	if got := Quantiles([]float64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("no quantiles requested, got %v", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	s := Summarize(xs)
	if s.N != 10 {
		t.Fatalf("N = %d", s.N)
	}
	if len(s.Outliers) != 1 || s.Outliers[0] != 100 {
		t.Fatalf("outliers = %v", s.Outliers)
	}
	if s.Max != 9 {
		t.Fatalf("Max (whisker) = %v, want 9", s.Max)
	}
	if s.Min != 1 {
		t.Fatalf("Min = %v", s.Min)
	}
	if s.Median != 5.5 {
		t.Fatalf("Median = %v", s.Median)
	}
}

func TestSummarizeEmptyAndDegenerate(t *testing.T) {
	s := Summarize(nil)
	if !math.IsNaN(s.Mean) {
		t.Fatal("empty summary must be NaN")
	}
	one := Summarize([]float64{7})
	if one.Min != 7 || one.Max != 7 || one.Median != 7 {
		t.Fatalf("singleton summary wrong: %+v", one)
	}
}

func TestSummarizeProperty(t *testing.T) {
	// Invariants: Min <= Q1 <= Median <= Q3 <= Max, whiskers within data
	// range, all points accounted for.
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		s := Summarize(raw)
		return s.Min <= s.Q1 && s.Q1 <= s.Median && s.Median <= s.Q3 && s.Q3 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReductionIncreasePercent(t *testing.T) {
	if got := ReductionPercent(100, 75); got != 25 {
		t.Fatalf("ReductionPercent = %v", got)
	}
	if got := IncreasePercent(100, 135); got != 35 {
		t.Fatalf("IncreasePercent = %v", got)
	}
	if !math.IsNaN(ReductionPercent(0, 5)) || !math.IsNaN(IncreasePercent(0, 5)) {
		t.Fatal("zero base must be NaN")
	}
}

func TestSummarizeWhiskerCollapseCorner(t *testing.T) {
	// All points below Q1 are outliers: the low whisker collapses onto Q1
	// instead of crossing it (regression for a property-test finding).
	s := Summarize([]float64{0, 10, 10, 10})
	if s.Min > s.Q1 {
		t.Fatalf("whisker min %.2f crossed Q1 %.2f", s.Min, s.Q1)
	}
	if len(s.Outliers) != 1 || s.Outliers[0] != 0 {
		t.Fatalf("outliers = %v, want [0]", s.Outliers)
	}
	// Mirror case for the high whisker.
	h := Summarize([]float64{10, 10, 10, 100})
	if h.Max < h.Q3 {
		t.Fatalf("whisker max %.2f below Q3 %.2f", h.Max, h.Q3)
	}
}

func TestPickKDeterminism(t *testing.T) {
	// Pins the exact draw stream of the partial-Fisher-Yates PickK for a
	// fixed seed: any change to the sampling algorithm (or to how many
	// draws it consumes) shows up here as a regression.
	g := NewRNG(42)
	cases := []struct {
		n, k int
		want []int
	}{
		{10, 4, []int{5, 9, 6, 4}},
		{100, 5, []int{23, 80, 71, 26, 84}},
		{7, 7, []int{0, 1, 5, 4, 3, 2, 6}},
	}
	for _, c := range cases {
		got := g.PickK(nil, c.n, c.k)
		if len(got) != len(c.want) {
			t.Fatalf("PickK(%d,%d) len = %d, want %d", c.n, c.k, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("PickK(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
			}
		}
	}
	// Appending behind what dst holds, in storage kept from one call to
	// the next, draws and picks the same.
	g = NewRNG(42)
	buf := make([]int, 1, 4)
	for _, c := range cases {
		buf = g.PickK(buf[:1], c.n, c.k)
		if buf[0] != 0 || !slices.Equal(buf[1:], c.want) {
			t.Fatalf("PickK([0], %d, %d) = %v, want 0 then %v", c.n, c.k, buf, c.want)
		}
	}
}

func TestPickKFullEqualsPerm(t *testing.T) {
	// k >= n must match math/rand's Perm: identical elements AND identical
	// draw stream, so callers that relied on PickK(n, n) keep byte-for-byte
	// reproducibility.
	for _, n := range []int{1, 2, 7, 20} {
		g, r := NewRNG(int64(n)), rand.New(rand.NewSource(int64(n)))
		a, b := g.PickK(nil, n, n), r.Perm(n)
		if !slices.Equal(a, b) || g.Intn(1<<30) != r.Intn(1<<30) {
			t.Fatalf("n=%d: PickK(n,n) = %v, Perm = %v, or the draws after them differ", n, a, b)
		}
		over := NewRNG(int64(n)).PickK(nil, n, n+3)
		if len(over) != n {
			t.Fatalf("PickK must clamp k>n to n, got len %d", len(over))
		}
	}
}

func TestPickKDistinctAndUniform(t *testing.T) {
	g := NewRNG(7)
	const n, k, trials = 12, 5, 20000
	counts := make([]int, n)
	for trial := 0; trial < trials; trial++ {
		got := g.PickK(nil, n, k)
		if len(got) != k {
			t.Fatalf("len = %d", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("bad pick %v", got)
			}
			seen[v] = true
			counts[v]++
		}
	}
	// Each element appears with probability k/n; allow 5% relative slack.
	want := float64(trials) * float64(k) / float64(n)
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("element %d picked %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestPickKZeroAndNegative(t *testing.T) {
	g := NewRNG(1)
	if got := g.PickK(nil, 5, 0); len(got) != 0 {
		t.Fatalf("PickK(5,0) = %v, want empty", got)
	}
	if got := g.PickK(nil, 5, -2); len(got) != 0 {
		t.Fatalf("PickK(5,-2) = %v, want empty", got)
	}
}

func TestSummarizeQuartilesMatchQuantile(t *testing.T) {
	// Summarize's sorted-input fast path must emit exactly the same
	// quartiles as the public Quantile on the raw (unsorted) data.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Q1 == Quantile(xs, 0.25) &&
			s.Median == Quantile(xs, 0.5) &&
			s.Q3 == Quantile(xs, 0.75)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}
