// Package analysis implements the closed-form MapReduce runtime models of
// Section IV-B: the normal-mode runtime, the failure-mode runtime under
// locality-first scheduling, and the failure-mode runtime under
// degraded-first scheduling. Evaluated over the points of Figure 5 (the
// fig5a-c experiments in internal/exp), they give its numerical results.
package analysis

import (
	"errors"
	"fmt"

	"degradedfirst/internal/sched"
)

// Params are the analysis parameters, in the paper's notation.
type Params struct {
	// N is the number of homogeneous nodes.
	N int
	// R is the number of racks (N/R nodes each).
	R int
	// L is the number of map slots per node.
	L int
	// T is the processing time of one map task (seconds).
	T float64
	// S is the input block size (bytes).
	S float64
	// W is the download bandwidth of each rack (bytes/second).
	W float64
	// K is the erasure code's k (native blocks per stripe).
	K int
	// F is the total number of native blocks processed by the job.
	F int
}

// Default returns the paper's default analysis setting: N=40, R=4, L=4,
// S=128 MB, W=1 Gbps, T=20 s, F=1440, (n,k)=(16,12).
func Default() Params {
	return Params{
		N: 40, R: 4, L: 4,
		T: 20,
		S: 128e6,
		W: 1e9 / 8,
		K: 12,
		F: 1440,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	switch {
	case p.N <= 1 || p.R <= 0 || p.L <= 0 || p.K <= 0 || p.F <= 0:
		return errors.New("analysis: N>1, R, L, K, F must be positive")
	case p.T <= 0 || p.S <= 0 || p.W <= 0:
		return errors.New("analysis: T, S, W must be positive")
	case p.R > p.N:
		return fmt.Errorf("analysis: more racks (%d) than nodes (%d)", p.R, p.N)
	default:
		return nil
	}
}

// NormalRuntime is the map-only runtime without failures: F·T / (N·L).
func (p Params) NormalRuntime() float64 {
	return float64(p.F) * p.T / float64(p.N*p.L)
}

// DegradedReadTime is the expected inter-rack download time of one
// degraded read: (R-1)·k·S / (R·W).
func (p Params) DegradedReadTime() float64 {
	return sched.ExpectedDegradedReadTime(p.R, p.K, p.S, p.W)
}

// degradedPerRack is F/(N·R), the degraded tasks per rack.
func (p Params) degradedPerRack() float64 {
	return float64(p.F) / float64(p.N*p.R)
}

// LocalityFirstRuntime is the failure-mode runtime under locality-first
// scheduling:
//
//	F·T/(N·L)  +  F/(N·R) · (R-1)·k·S/(R·W)  +  T
//
// (all local tasks, then all degraded reads serialized per rack, then one
// slot-duration of parallel processing).
func (p Params) LocalityFirstRuntime() float64 {
	return p.NormalRuntime() + p.degradedPerRack()*p.DegradedReadTime() + p.T
}

// DegradedFirstRuntime is the failure-mode runtime under degraded-first
// scheduling:
//
//	max( F·T/((N-1)·L) + T ,  F/(N·R) · (R-1)·k·S/(R·W) + T )
//
// — the slower of the compute-bound lock-step rounds and the inter-rack
// transfer bound.
func (p Params) DegradedFirstRuntime() float64 {
	compute := float64(p.F)*p.T/float64((p.N-1)*p.L) + p.T
	network := p.degradedPerRack()*p.DegradedReadTime() + p.T
	if compute > network {
		return compute
	}
	return network
}

// Normalized runtimes (over the normal-mode runtime), as plotted in Fig. 5.

// NormalizedLF returns LocalityFirstRuntime / NormalRuntime.
func (p Params) NormalizedLF() float64 {
	return p.LocalityFirstRuntime() / p.NormalRuntime()
}

// NormalizedDF returns DegradedFirstRuntime / NormalRuntime.
func (p Params) NormalizedDF() float64 {
	return p.DegradedFirstRuntime() / p.NormalRuntime()
}

// ReductionPercent is the runtime reduction of degraded-first over
// locality-first, in percent.
func (p Params) ReductionPercent() float64 {
	lf := p.LocalityFirstRuntime()
	return 100 * (lf - p.DegradedFirstRuntime()) / lf
}
