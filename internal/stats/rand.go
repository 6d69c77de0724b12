// Package stats provides the statistical utilities used across the
// reproduction: deterministic seeded random sources, the distributions the
// paper's simulator draws from (truncated normal task times, exponential
// job inter-arrivals), and boxplot-style summaries matching the paper's
// figures.
package stats

import (
	"math/rand"
	"slices"
)

// RNG wraps math/rand.Rand with the distributions the simulator needs. All
// draws are deterministic given the seed, which the experiment harness
// relies on for reproducible boxplots.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Normal draws from N(mean, std) truncated at a small positive floor.
// The paper draws map/reduce processing times from normal distributions
// (e.g. mean 20 s, std 1 s); a non-positive sample would be meaningless, so
// draws are clamped to mean/100 (strictly positive for positive means).
func (g *RNG) Normal(mean, std float64) float64 {
	v := g.r.NormFloat64()*std + mean
	floor := mean / 100
	if floor <= 0 {
		floor = 1e-9
	}
	if v < floor {
		return floor
	}
	return v
}

// Exponential draws from an exponential distribution with the given mean
// (used for multi-job inter-arrival times, mean 120 s in the paper).
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Fork derives a new independent RNG from this one; useful to give each
// simulated component its own stream while staying reproducible.
func (g *RNG) Fork() *RNG {
	return NewRNG(g.r.Int63())
}

// PickK appends k distinct uniformly chosen elements of [0, n) to dst
// and returns it. It shuffles in dst's spare room, n slots (grown if
// short): for k < n a partial Fisher-Yates shuffle of k draws, and for
// k >= n all of [0, n) in math/rand's Perm(n) order, drawn as Perm
// draws it.
func (g *RNG) PickK(dst []int, n, k int) []int {
	if k <= 0 {
		return dst
	}
	from := len(dst)
	dst = slices.Grow(dst, n)[:from+n]
	s := dst[from:]
	if k >= n {
		for i := range s {
			j := g.r.Intn(i + 1)
			s[i] = s[j]
			s[j] = i
		}
		return dst
	}
	for i := range s {
		s[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + g.r.Intn(n-i)
		s[i], s[j] = s[j], s[i]
	}
	return dst[:from+k]
}
