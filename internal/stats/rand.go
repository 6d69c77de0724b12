// Package stats provides the statistical utilities used across the
// reproduction: deterministic seeded random sources, the distributions the
// paper's simulator draws from (truncated normal task times, exponential
// job inter-arrivals), and boxplot-style summaries matching the paper's
// figures.
package stats

import "math/rand"

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

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

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

// PickK returns k distinct uniformly chosen elements of [0, n).
//
// It runs a partial Fisher-Yates shuffle: O(k) time and O(k) space instead
// of the O(n) permutation it previously built and truncated. For k == n it
// delegates to Perm, which is the same distribution and draw stream as
// before. For k < n the result distribution is unchanged (each k-subset
// ordering remains equally likely) but the *draw stream* differs from the
// old implementation: only k Intn draws are consumed instead of n, so
// sequences of later draws from the same RNG shift relative to older
// versions. Committed experiment artifacts generated before this change may
// therefore differ textually; all tests and the golden backend-equivalence
// check are insensitive to the stream change.
func (g *RNG) PickK(n, k int) []int {
	if k >= n {
		return g.Perm(n)
	}
	if k <= 0 {
		return []int{}
	}
	// displaced[j] holds the current occupant of slot j for the slots we
	// have touched; untouched slots implicitly hold their own index.
	displaced := make(map[int]int, k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + g.r.Intn(n-i)
		vj, ok := displaced[j]
		if !ok {
			vj = j
		}
		vi, ok := displaced[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		displaced[j] = vi
	}
	return out
}
