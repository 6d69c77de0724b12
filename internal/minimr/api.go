// Package minimr is a real-execution MapReduce engine over the in-memory
// erasure-coded DFS: map and reduce functions actually run on real bytes,
// degraded reads genuinely decode lost blocks (Reed-Solomon or LRC, from
// the sources the runtime's planner picked), and the shuffle carries real
// intermediate key-value data.
//
// It is this reproduction's substitute for the paper's Hadoop 0.22.0 +
// HDFS-RAID testbed (Section VI): data transfer and CPU time are charged
// on a virtual clock (the same discrete-event engine and network model as
// the simulator), calibrated so per-task times match the paper's testbed,
// while all data-path computation is real. See DESIGN.md for the
// substitution rationale.
package minimr

import (
	"errors"
	"fmt"
	"math"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/runtime"
)

// Mapper processes one input block and emits intermediate records. The
// engine runs several at once, off the caller's goroutine, so a Mapper
// must be safe for concurrent use; the block is read-only.
type Mapper func(block []byte, emit func(key, value string))

// Reducer processes one key's values and emits output records. The
// values slice is valid only during the call. The engine runs reducers
// one at a time, off the caller's goroutine.
type Reducer func(key string, values []string, emit func(key, value string))

// Job is one MapReduce job over a DFS file.
type Job struct {
	// Name labels the job.
	Name string
	// Input is the DFS file name holding the job's input.
	Input string
	// Map and Reduce are the job's real functions.
	Map    Mapper
	Reduce Reducer
	// Combine, if set, runs over each map task's output before the
	// shuffle, as Hadoop runs a combiner: it sees the task's records
	// grouped by key, and what it emits is shuffled in their place (see
	// MapBlock). Reduce must compute the same output from combined
	// records as from raw ones, as a sum does. It runs beside the map
	// tasks, so like a Mapper it must be safe for concurrent use. Only a
	// job with a Reduce may set it: Hadoop runs no combiner on a map-only
	// job.
	Combine Reducer
	// NumReducers is the reduce task count (must be positive when Reduce
	// is set; 0 with a nil Reduce makes a map-only job).
	NumReducers int
	// MapCost charges CPU seconds per map task: Fixed + PerMB * input MB.
	MapCost Cost
	// ReduceCost charges CPU seconds per reduce task: Fixed + PerMB *
	// received shuffle MB.
	ReduceCost Cost
	// SubmitAt is the submission time (FIFO order follows slice order; the
	// engine validates that SubmitAt is nondecreasing).
	SubmitAt float64
	// JobMeta (Tenant, Weight, Deadline) feeds the job-level scheduling
	// policies (Options.JobSched).
	jobsched.JobMeta
}

// Cost is a linear virtual-CPU-time model.
type Cost struct {
	Fixed float64
	PerMB float64
}

// Seconds returns the cost of processing the given byte volume.
func (c Cost) Seconds(bytes float64) float64 {
	return c.Fixed + c.PerMB*bytes/1e6
}

// Options configures the engine around a pre-populated DFS. They are the
// settings every engine shares; Seed drives the degraded source picks.
type Options = runtime.Options

// Validation errors. Each failure mode has a sentinel so callers —
// including the distributed runtime's master, which validates jobs at
// submission — can branch with errors.Is instead of matching message
// strings. Returned errors wrap the sentinel with the offending option
// or job name. A bad Options or JobMeta value wraps runtime's or
// jobsched's sentinel.
var (
	// ErrNoJobs rejects an empty job list.
	ErrNoJobs = errors.New("minimr: no jobs")
	// ErrNoInput rejects a job without an input file.
	ErrNoInput = errors.New("minimr: job has no input")
	// ErrNoMapper rejects a job without a map function.
	ErrNoMapper = errors.New("minimr: job has no mapper")
	// ErrReducersWithoutReduce rejects NumReducers > 0 with a nil Reduce.
	ErrReducersWithoutReduce = errors.New("minimr: job has reducers but no reduce function")
	// ErrReduceWithoutReducers rejects a non-nil Reduce with NumReducers <= 0.
	ErrReduceWithoutReducers = errors.New("minimr: job has a reduce function but no reducers")
	// ErrCombineWithoutReduce rejects a Combine on a map-only job.
	ErrCombineWithoutReduce = errors.New("minimr: job has a combiner but no reduce function")
	// ErrNegativeReducers rejects NumReducers < 0 (map-only jobs use 0).
	ErrNegativeReducers = errors.New("minimr: negative reducer count")
	// ErrBadSubmitTime rejects a negative or NaN SubmitAt.
	ErrBadSubmitTime = errors.New("minimr: negative submit time")
	// ErrNegativeCost rejects negative MapCost/ReduceCost components.
	ErrNegativeCost = errors.New("minimr: negative cost")
	// ErrSubmitOrder rejects a job list whose SubmitAt values decrease:
	// the FIFO queue follows slice order, so out-of-order times would
	// desynchronize queue position from submission time.
	ErrSubmitOrder = errors.New("minimr: jobs must be submitted in nondecreasing SubmitAt order")
)

// Validate rejects a malformed job with a typed error.
func (j *Job) Validate() error {
	if j.Input == "" {
		return fmt.Errorf("%w: job %q", ErrNoInput, j.Name)
	}
	if j.Map == nil {
		return fmt.Errorf("%w: job %q", ErrNoMapper, j.Name)
	}
	if j.NumReducers < 0 {
		return fmt.Errorf("%w: job %q has %d", ErrNegativeReducers, j.Name, j.NumReducers)
	}
	if j.Reduce == nil && j.NumReducers > 0 {
		return fmt.Errorf("%w: job %q", ErrReducersWithoutReduce, j.Name)
	}
	if j.Reduce != nil && j.NumReducers <= 0 {
		return fmt.Errorf("%w: job %q", ErrReduceWithoutReducers, j.Name)
	}
	if j.Combine != nil && j.Reduce == nil {
		return fmt.Errorf("%w: job %q", ErrCombineWithoutReduce, j.Name)
	}
	if j.SubmitAt < 0 || math.IsNaN(j.SubmitAt) {
		return fmt.Errorf("%w: job %q at %v", ErrBadSubmitTime, j.Name, j.SubmitAt)
	}
	if j.MapCost.Fixed < 0 || j.MapCost.PerMB < 0 || j.ReduceCost.Fixed < 0 || j.ReduceCost.PerMB < 0 {
		return fmt.Errorf("%w: job %q", ErrNegativeCost, j.Name)
	}
	if err := j.JobMeta.Validate(); err != nil {
		return fmt.Errorf("minimr: job %q: %w", j.Name, err)
	}
	return nil
}

// ValidateJobs validates every job plus the cross-job constraint that
// SubmitAt is nondecreasing in slice (FIFO) order.
func ValidateJobs(jobs []Job) error {
	if len(jobs) == 0 {
		return ErrNoJobs
	}
	for i := range jobs {
		if err := jobs[i].Validate(); err != nil {
			return err
		}
		if i > 0 && jobs[i].SubmitAt < jobs[i-1].SubmitAt {
			return fmt.Errorf("%w: job %q at %v after %q at %v",
				ErrSubmitOrder, jobs[i].Name, jobs[i].SubmitAt, jobs[i-1].Name, jobs[i-1].SubmitAt)
		}
	}
	return nil
}

// Report is the outcome of one engine run: the runtime's Result plus each
// job's real output records.
type Report struct {
	runtime.Result
	// Outputs[i] is job i's final reduce output (or map output for
	// map-only jobs), merged across reduce tasks.
	Outputs []map[string]string
}
