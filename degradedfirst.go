// Package degradedfirst reproduces "Degraded-First Scheduling for
// MapReduce in Erasure-Coded Storage Clusters" (Li, Lee, Hu — DSN 2014)
// as a Go library.
//
// The package is a facade over the building blocks in internal/:
//
//   - a discrete-event MapReduce simulator (Simulate) with the paper's
//     three schedulers — locality-first (LF), basic degraded-first (BDF),
//     and enhanced degraded-first (EDF);
//   - a real-execution mini-MapReduce engine (RunJobs) over an in-memory
//     erasure-coded DFS, standing in for the paper's Hadoop testbed;
//   - the closed-form runtime models of Section IV-B (Analysis*);
//   - the experiment registry regenerating every table and figure
//     (Experiments, RunExperiment).
//
// Quick start:
//
//	cfg := degradedfirst.DefaultSimConfig()
//	cfg.Scheduler = degradedfirst.EnhancedDegradedFirst
//	res, err := degradedfirst.Simulate(cfg, degradedfirst.DefaultJob())
package degradedfirst

import (
	"context"

	"degradedfirst/internal/analysis"
	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/exp"
	"degradedfirst/internal/mapred"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/netsim"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

// Scheduler selects one of the paper's scheduling algorithms.
type Scheduler = sched.Kind

// The three algorithms of the paper plus the unpaced ablation.
const (
	// LocalityFirst is Hadoop's default (Algorithm 1).
	LocalityFirst = sched.KindLF
	// BasicDegradedFirst is Algorithm 2.
	BasicDegradedFirst = sched.KindBDF
	// EnhancedDegradedFirst is Algorithm 3 (locality preservation + rack
	// awareness).
	EnhancedDegradedFirst = sched.KindEDF
	// EagerDegradedFirst is the unpaced ablation (not in the paper).
	EagerDegradedFirst = sched.KindEagerDF
	// DelayLocalityFirst is the delay-scheduling baseline (Zaharia et al.
	// EuroSys 2010, the paper's related work [35]).
	DelayLocalityFirst = sched.KindDelayLF
)

// Simulation types (the discrete-event simulator of Section V).
type (
	// SimConfig configures a simulation run (cluster shape, network,
	// code, placement, scheduler, failure scenario).
	SimConfig = mapred.Config
	// JobSpec describes one simulated MapReduce job.
	JobSpec = mapred.JobSpec
	// Dist is a truncated normal distribution of task times.
	Dist = mapred.Dist
	// SimResult is a simulation outcome with per-task records.
	SimResult = mapred.Result
	// JobResult is one job's outcome.
	JobResult = mapred.JobResult
)

// Cluster and failure types.
type (
	// FailurePattern selects the injected failure scenario.
	FailurePattern = topology.FailurePattern
	// NodeID identifies a cluster node.
	NodeID = topology.NodeID
)

// Failure patterns (Figure 7d).
const (
	// NoFailure runs in normal mode.
	NoFailure = topology.NoFailure
	// SingleNodeFailure fails one random node.
	SingleNodeFailure = topology.SingleNodeFailure
	// DoubleNodeFailure fails two random nodes.
	DoubleNodeFailure = topology.DoubleNodeFailure
	// RackFailure fails one random rack.
	RackFailure = topology.RackFailure
)

// Bandwidth constants in bytes per second.
const (
	// Mbps is one megabit per second.
	Mbps = netsim.Mbps
	// Gbps is one gigabit per second.
	Gbps = netsim.Gbps
)

// DefaultSimConfig returns the paper's default simulation scenario
// (Section V-B): 40 nodes / 4 racks, (20,15) code, 128 MB blocks, 1440
// blocks, 1 Gbps racks, single-node failure, LF scheduling.
func DefaultSimConfig() SimConfig { return mapred.DefaultConfig() }

// DefaultJob returns the paper's default job: map N(20 s, 1 s), reduce
// N(30 s, 2 s), 30 reducers, 1% shuffle ratio.
func DefaultJob() JobSpec { return mapred.DefaultJob() }

// Simulate runs the discrete-event simulator over the jobs.
func Simulate(cfg SimConfig, jobs ...JobSpec) (*SimResult, error) {
	return mapred.Run(cfg, jobs)
}

// SimulateContext is Simulate with cancellation: ctx aborts the run at
// the next heartbeat.
func SimulateContext(ctx context.Context, cfg SimConfig, jobs ...JobSpec) (*SimResult, error) {
	return mapred.RunContext(ctx, cfg, jobs)
}

// AnalysisParams are the Section IV-B closed-form model's parameters in
// the paper's notation.
type AnalysisParams = analysis.Params

// DefaultAnalysisParams returns the paper's default analysis setting.
func DefaultAnalysisParams() AnalysisParams { return analysis.Default() }

// Erasure-coded storage types (the real-data substrate).
type (
	// Code is a systematic (n, k) Reed-Solomon code.
	Code = erasure.Code
	// BlockID identifies one block of an erasure-coded file.
	BlockID = erasure.BlockID
	// FileSystem is the in-memory erasure-coded DFS.
	FileSystem = dfs.FS
	// Cluster is the node/rack topology with failure state.
	Cluster = topology.Cluster
	// ClusterConfig shapes a Cluster.
	ClusterConfig = topology.Config
	// RNG is the deterministic random source used across the library.
	RNG = stats.RNG
)

// NewCode returns an (n, k) Reed-Solomon code.
func NewCode(n, k int) (*Code, error) { return erasure.New(n, k) }

// LRC is an Azure-style local reconstruction code: single-block repairs
// read only a local group (k/l blocks) instead of k.
type LRC = erasure.LRC

// NewLRC returns an LRC(k, l, g) code.
func NewLRC(k, l, g int) (*LRC, error) { return erasure.NewLRC(k, l, g) }

// SlotTimeline renders a job's map-slot activity as ASCII art in the
// style of the paper's Figure 3 ('L' local, 'r' rack-local, 'R' remote,
// 'D' degraded, 'x' failed node).
func SlotTimeline(res *SimResult, jobIdx, width int) string {
	return runtime.Timeline(res, jobIdx, width)
}

// NewCluster builds a cluster topology.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return topology.New(cfg) }

// NewRNG returns a deterministic random source.
func NewRNG(seed int64) *RNG { return stats.NewRNG(seed) }

// NewFileSystem builds an empty erasure-coded DFS over the cluster with
// round-robin placement (the paper's testbed policy). Use the internal
// placement package via the facade helpers for other policies.
func NewFileSystem(c *Cluster, code *Code, blockSize int, rng *RNG) (*FileSystem, error) {
	return dfs.New(c, code, blockSize, placement.RoundRobin{}, rng)
}

// Coder is the erasure-code interface shared by Reed-Solomon and LRC.
type Coder = erasure.Coder

// NewFileSystemWithCoder is NewFileSystem for any erasure code, including
// LRC — degraded reads then use the code's cheapest repair strategy
// (local groups when available).
func NewFileSystemWithCoder(c *Cluster, code Coder, blockSize int, rng *RNG) (*FileSystem, error) {
	return dfs.New(c, code, blockSize, placement.RoundRobin{}, rng)
}

// Real-execution engine types (the paper's testbed stand-in, Section VI).
type (
	// MRJob is a real MapReduce job for the minimr engine.
	MRJob = minimr.Job
	// MROptions configures a minimr run.
	MROptions = minimr.Options
	// MRReport is a minimr run outcome including real outputs.
	MRReport = minimr.Report
)

// Testbed scale constants (see internal/minimr).
const (
	// TestbedBlockSize is the scaled block size (64 KB for the paper's
	// 64 MB).
	TestbedBlockSize = minimr.TestbedBlockSize
	// TestbedRackBps is the correspondingly scaled rack bandwidth.
	TestbedRackBps = minimr.TestbedRackBps
	// TestbedNumBlocks is the paper's 15 GB input in blocks.
	TestbedNumBlocks = minimr.TestbedNumBlocks
)

// WordCount, Grep and LineCount are the paper's three I/O-heavy jobs.
func WordCount(input string, reducers int) MRJob { return minimr.WordCountJob(input, reducers) }

// Grep builds the paper's Grep job for the given word.
func Grep(input, word string, reducers int) MRJob { return minimr.GrepJob(input, word, reducers) }

// LineCount builds the paper's LineCount job.
func LineCount(input string, reducers int) MRJob { return minimr.LineCountJob(input, reducers) }

// RunJobs executes real MapReduce jobs on the DFS through the virtual-time
// engine.
func RunJobs(fs *FileSystem, opts MROptions, jobs []MRJob) (*MRReport, error) {
	return minimr.Run(fs, opts, jobs)
}

// RunJobsContext is RunJobs with cancellation: ctx aborts the run at the
// next heartbeat.
func RunJobsContext(ctx context.Context, fs *FileSystem, opts MROptions, jobs []MRJob) (*MRReport, error) {
	return minimr.RunContext(ctx, fs, opts, jobs)
}

// GenerateCorpus produces deterministic block-aligned English-like text
// for the testbed jobs.
func GenerateCorpus(numBlocks, blockSize int, seed int64) ([]byte, error) {
	return workload.GenerateBlockAlignedCorpus(numBlocks, blockSize, seed)
}

// Experiment types (the per-figure/table registry).
type (
	// Experiment is a registered artifact reproduction.
	Experiment = exp.Experiment
	// ExperimentOptions tunes experiment cost.
	ExperimentOptions = exp.Options
	// ExperimentTable is a printable experiment result.
	ExperimentTable = exp.Table
)

// Experiments lists every registered figure/table reproduction, sorted by
// ID.
func Experiments() []Experiment { return exp.All() }

// Structured trace types (the cluster runtime's lifecycle event stream;
// see internal/trace).
type (
	// TraceEvent is one typed lifecycle event on the virtual clock.
	TraceEvent = trace.Event
	// TraceSink receives trace events; set it on SimConfig.Trace,
	// MROptions.Trace or ExperimentOptions.Trace.
	TraceSink = trace.Sink
	// MemoryTrace buffers events in memory for inspection.
	MemoryTrace = trace.Memory
)

// RunExperiment regenerates one figure or table by registry ID (e.g.
// "fig7a", "table1").
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentTable, error) {
	return RunExperimentContext(context.Background(), id, opts)
}

// RunExperimentContext is RunExperiment with cancellation: ctx aborts the
// experiment's in-flight simulation runs at their next heartbeat.
func RunExperimentContext(ctx context.Context, id string, opts ExperimentOptions) (*ExperimentTable, error) {
	e, ok := exp.Get(id)
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return e.Run(ctx, opts)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "degradedfirst: unknown experiment " + string(e)
}

// MRTimeline renders a minimr job's map-slot activity as ASCII art, like
// SlotTimeline but for real-execution reports.
func MRTimeline(rep *MRReport, jobIdx, width int) string {
	if rep == nil {
		return ""
	}
	return runtime.Timeline(&rep.Result, jobIdx, width)
}
