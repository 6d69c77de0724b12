// Package mapred is the discrete-event MapReduce simulator of Section V:
// a master with a FIFO job queue, slaves with map/reduce slots sending
// periodic heartbeats, map tasks that read blocks (locally, remotely, or
// via degraded reads), a shuffle phase, and reduce tasks — all timed
// through the netsim network model and scheduled by one of the three
// algorithms in package sched.
package mapred

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// SchedulerKind selects the scheduling algorithm for a run. It is an alias
// for sched.Kind so the simulator and the real-execution engine share one
// enum.
type SchedulerKind = sched.Kind

const (
	// LF is locality-first scheduling (Hadoop default, Algorithm 1).
	LF = sched.KindLF
	// BDF is basic degraded-first scheduling (Algorithm 2).
	BDF = sched.KindBDF
	// EDF is enhanced degraded-first scheduling (Algorithm 3).
	EDF = sched.KindEDF
)

// Dist is a (truncated) normal distribution of task processing times.
type Dist struct {
	Mean, Std float64
}

// JobSpec describes one MapReduce job. Each job processes its own
// erasure-coded file of NumBlocks native blocks; every native block is one
// map task.
type JobSpec struct {
	// Name labels the job in results.
	Name string
	// NumBlocks is the job's native block count (its map task count).
	// Zero means Config.NumBlocks.
	NumBlocks int
	// MapTime is the per-map-task processing-time distribution, scaled by
	// the executing node's SpeedFactor.
	MapTime Dist
	// ReduceTime is the per-reduce-task processing-time distribution.
	ReduceTime Dist
	// NumReduceTasks is the reduce task count (0 = map-only job).
	NumReduceTasks int
	// ShuffleRatio is intermediate data per map task as a fraction of the
	// block size, spread evenly over the reduce tasks.
	ShuffleRatio float64
	// SubmitAt is the job's submission time.
	SubmitAt float64

	// JobMeta (Tenant, Weight, Deadline) feeds the job-level scheduling
	// policies (Config.JobSched).
	jobsched.JobMeta
}

// Config describes one simulation run.
type Config struct {
	// Cluster shape.
	Nodes, Racks       int
	RackSizes          []int // optional explicit rack sizes
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// Topology, when set, builds a multi-tier cluster fabric (see
	// topology.FatTree) instead of the two-level Nodes/Racks shape; those
	// fields must then stay zero. The spec's per-tier capacities drive the
	// network; the legacy RackBps/NodeBps/CoreBps fields still override
	// the NIC, leaf, and core layers when non-zero.
	Topology *topology.Spec
	// SpeedFactors optionally overrides per-node processing speed
	// multipliers (heterogeneous clusters, Section V-C).
	SpeedFactors map[topology.NodeID]float64

	// Storage.
	N, K           int
	BlockSizeBytes float64
	NumBlocks      int              // default F per job
	Policy         placement.Policy `json:"-"` // nil = rack-constrained random (dfs.New)
	// LocalGroups, when positive, makes the code the locally repairable
	// LRC(K, LocalGroups, N−K−LocalGroups) (footnote 1 of the paper): a
	// lost native block is read from its K/LocalGroups-block local group.
	// Zero keeps Reed-Solomon (N, K).
	LocalGroups int

	// Options are the settings every engine shares — Scheduler, the
	// network (RackBps, NodeBps, CoreBps, NetMode), Seed, the master
	// loop's features, Trace — declared, defaulted and validated in package
	// runtime. Seed drives all randomness here: placement, failure choice,
	// task times and degraded sources.
	runtime.Options

	// Failure scenario, injected at time zero (after placement).
	Failure topology.FailurePattern
	// FailNodes, when non-empty, fails exactly these nodes instead of
	// drawing them from Failure — used to reproduce the paper's worked
	// examples where the failed node is fixed.
	FailNodes []topology.NodeID
	// FailAt, when positive, injects the failure at this virtual time
	// instead of time zero. Mid-run failures trigger Hadoop-style
	// recovery: running tasks on the failed node are re-executed, lost
	// map outputs are regenerated, and reducers restart elsewhere.
	FailAt float64
}

// DefaultConfig returns the paper's default simulation configuration
// (Section V-B): 40 nodes in 4 racks, 4 map + 1 reduce slots per node,
// 1 Gbps rack bandwidth, 128 MB blocks, (20,15) code, 1440 blocks,
// single-node failure, LF scheduling (callers override Scheduler).
func DefaultConfig() Config {
	return Config{
		Nodes:              40,
		Racks:              4,
		MapSlotsPerNode:    4,
		ReduceSlotsPerNode: 1,
		N:                  20,
		K:                  15,
		BlockSizeBytes:     128e6,
		NumBlocks:          1440,
		Options: runtime.Options{
			Scheduler:         LF,
			RackBps:           netsim.Gbps,
			NetMode:           netsim.FluidFairSharing,
			HeartbeatInterval: 3,
		},
		Failure: topology.SingleNodeFailure,
	}
}

// DefaultJob returns the paper's default job: map times N(20 s, 1 s),
// reduce times N(30 s, 2 s), 30 reduce tasks, 1% shuffle ratio.
func DefaultJob() JobSpec {
	return JobSpec{
		Name:           "job",
		MapTime:        Dist{Mean: 20, Std: 1},
		ReduceTime:     Dist{Mean: 30, Std: 2},
		NumReduceTasks: 30,
		ShuffleRatio:   0.01,
	}
}

// validate checks the settings topology.New does not (it has built spec,
// the run's fabric, from the shape and slot fields) and applies the
// options' defaults in place.
func (c *Config) validate(spec *topology.Spec) error {
	if c.K <= 0 || c.N <= c.K {
		return fmt.Errorf("mapred: invalid code (%d,%d)", c.N, c.K)
	}
	if c.BlockSizeBytes <= 0 || !finite(c.BlockSizeBytes) {
		return fmt.Errorf("mapred: BlockSizeBytes must be positive and finite, got %v", c.BlockSizeBytes)
	}
	if c.NumBlocks <= 0 {
		return errors.New("mapred: NumBlocks must be positive")
	}
	if c.FailAt < 0 || !finite(c.FailAt) {
		return fmt.Errorf("mapred: FailAt must be non-negative and finite, got %v", c.FailAt)
	}
	if err := c.Options.Validate(spec); err != nil {
		return fmt.Errorf("mapred: %w", err)
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite: NaN passes every
// `x <= 0` test and +Inf every `x < 0` one, then panics the engine mid-run.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// validateJob checks a job spec and applies defaults in place.
func (c *Config) validateJob(j *JobSpec) error {
	for _, v := range []struct {
		field string
		x     float64
	}{
		{"MapTime.Mean", j.MapTime.Mean}, {"MapTime.Std", j.MapTime.Std},
		{"ReduceTime.Mean", j.ReduceTime.Mean}, {"ReduceTime.Std", j.ReduceTime.Std},
		{"ShuffleRatio", j.ShuffleRatio}, {"SubmitAt", j.SubmitAt},
	} {
		if !finite(v.x) {
			return fmt.Errorf("mapred: job %q: %s must be finite, got %v", j.Name, v.field, v.x)
		}
	}
	if j.NumBlocks == 0 {
		j.NumBlocks = c.NumBlocks
	}
	if j.NumBlocks <= 0 {
		return fmt.Errorf("mapred: job %q has invalid block count %d", j.Name, j.NumBlocks)
	}
	if j.MapTime.Mean <= 0 {
		return fmt.Errorf("mapred: job %q needs a positive map time", j.Name)
	}
	if j.NumReduceTasks < 0 || j.ShuffleRatio < 0 || j.SubmitAt < 0 {
		return fmt.Errorf("mapred: job %q has negative parameters", j.Name)
	}
	if err := j.JobMeta.Validate(); err != nil {
		return fmt.Errorf("mapred: job %q: %w", j.Name, err)
	}
	if j.NumReduceTasks > 0 && j.ReduceTime.Mean <= 0 {
		return fmt.Errorf("mapred: job %q needs a positive reduce time", j.Name)
	}
	return nil
}

// ExpectedDegradedReadTime returns EDF's rack-awareness threshold for
// this configuration, runtime.DegradedReadTime over the cluster and code it
// builds: (R-1)·r·S / (R·W) for R racks (leaf groups), r blocks read per
// degraded read (K, or K/LocalGroups for an LRC) and rack download
// bandwidth W, taken from the spec's leaf tier unless RackBps overrides it.
// It is 0 for a configuration that builds no cluster or code.
func (c *Config) ExpectedDegradedReadTime() float64 {
	cluster, err := c.Cluster()
	if err != nil {
		return 0
	}
	code, err := c.Code()
	if err != nil {
		return 0
	}
	return runtime.DegradedReadTime(cluster, code, c.BlockSizeBytes, c.RackBps)
}

// Cluster builds the run's cluster and sets its speed factors, in node
// order; no node has failed yet.
func (c *Config) Cluster() (*topology.Cluster, error) {
	cluster, err := topology.New(topology.Config{
		Nodes:              c.Nodes,
		Racks:              c.Racks,
		RackSizes:          c.RackSizes,
		Spec:               c.Topology,
		MapSlotsPerNode:    c.MapSlotsPerNode,
		ReduceSlotsPerNode: c.ReduceSlotsPerNode,
	})
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(c.SpeedFactors))
	for id := range c.SpeedFactors {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		if err := cluster.SetSpeedFactor(topology.NodeID(id), c.SpeedFactors[topology.NodeID(id)]); err != nil {
			return nil, err
		}
	}
	return cluster, nil
}

// Code builds the run's erasure code: the LRC when LocalGroups is set
// (NewLRC rejects a negative count), else Reed-Solomon.
func (c *Config) Code() (erasure.Coder, error) {
	if c.LocalGroups != 0 {
		return erasure.NewLRC(c.K, c.LocalGroups, c.N-c.K-c.LocalGroups)
	}
	return erasure.New(c.N, c.K)
}
