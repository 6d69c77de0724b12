package runtime

import (
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// TaskRecord captures one map task's life cycle.
type TaskRecord struct {
	Task  int
	Class sched.Class
	Node  topology.NodeID
	// LaunchTime is when the task was assigned; FinishTime when its
	// processing completed. Runtime (Finish-Launch) includes transfer
	// time, as in the paper's Table I.
	LaunchTime, FinishTime float64
	// DegradedReadTime is the span from launch until the first k source
	// blocks arrived (degraded tasks only; all sources when hedging is
	// off).
	DegradedReadTime float64
	// FlowLatencies are the observed per-source-flow latencies of the
	// task's degraded fan-in, one per winning flow. Recorded only under
	// an active hedge policy (nil otherwise).
	FlowLatencies []float64
}

// Runtime returns FinishTime - LaunchTime.
func (r TaskRecord) Runtime() float64 { return r.FinishTime - r.LaunchTime }

// ReduceRecord captures one reduce task's life cycle.
type ReduceRecord struct {
	Index int
	Node  topology.NodeID
	// LaunchTime is when the reduce slot was taken; FinishTime when the
	// reduce processing completed.
	LaunchTime, FinishTime float64
}

// Runtime returns FinishTime - LaunchTime.
func (r ReduceRecord) Runtime() float64 { return r.FinishTime - r.LaunchTime }

// JobResult aggregates one job's outcome.
type JobResult struct {
	Name string
	// Tenant is the submitting tenant ("" for single-tenant runs).
	Tenant     string
	SubmitTime float64
	// QueueDelay is the span from queue entry to the job's first
	// map-slot grant, or -1 when the job never received a grant (or the
	// trace predates the queue-entry/grant event pair).
	QueueDelay float64
	// FirstMapLaunch..FinishTime is the paper's job runtime ("the time
	// interval between the launch of the first map task and the
	// completion of the last reduce task").
	FirstMapLaunch float64
	MapPhaseEnd    float64
	FinishTime     float64

	Tasks   []TaskRecord
	Reduces []ReduceRecord
}

// Runtime returns the paper's job-runtime metric.
func (j *JobResult) Runtime() float64 { return j.FinishTime - j.FirstMapLaunch }

// CountByClass returns how many map tasks ran in each class.
func (j *JobResult) CountByClass() map[sched.Class]int {
	out := make(map[sched.Class]int, 4)
	for _, t := range j.Tasks {
		out[t.Class]++
	}
	return out
}

// RemoteTasks returns the number of remote map tasks (Figure 8a metric).
func (j *JobResult) RemoteTasks() int { return j.CountByClass()[sched.ClassRemote] }

// MeanNormalMapRuntime returns the mean runtime over local and remote
// (non-degraded) map tasks.
func (j *JobResult) MeanNormalMapRuntime() float64 {
	var sum float64
	n := 0
	for _, t := range j.Tasks {
		if t.Class != sched.ClassDegraded {
			sum += t.Runtime()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanDegradedRuntime returns the mean runtime of degraded map tasks.
func (j *JobResult) MeanDegradedRuntime() float64 {
	var sum float64
	n := 0
	for _, t := range j.Tasks {
		if t.Class == sched.ClassDegraded {
			sum += t.Runtime()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanReduceRuntime returns the mean reduce task runtime.
func (j *JobResult) MeanReduceRuntime() float64 {
	if len(j.Reduces) == 0 {
		return 0
	}
	var sum float64
	for _, r := range j.Reduces {
		sum += r.Runtime()
	}
	return sum / float64(len(j.Reduces))
}

// DegradedReadTimes returns the degraded-read durations of all degraded
// tasks (Figure 8b metric).
func (j *JobResult) DegradedReadTimes() []float64 {
	var out []float64
	for _, t := range j.Tasks {
		if t.Class == sched.ClassDegraded {
			out = append(out, t.DegradedReadTime)
		}
	}
	return out
}

// MeanDegradedReadTime returns the mean degraded-read duration, or 0 when
// there were no degraded tasks.
func (j *JobResult) MeanDegradedReadTime() float64 {
	ts := j.DegradedReadTimes()
	if len(ts) == 0 {
		return 0
	}
	return stats.Mean(ts)
}

// DegradedFlowLatencies returns every recorded per-source-flow latency
// across the job's degraded tasks (hedged runs only; empty otherwise).
func (j *JobResult) DegradedFlowLatencies() []float64 {
	var out []float64
	for _, t := range j.Tasks {
		out = append(out, t.FlowLatencies...)
	}
	return out
}

// RepairStats aggregates the background repair subsystem's outcome,
// rebuilt purely from the repair trace events.
type RepairStats struct {
	// StripesQueued counts distinct stripes that entered the repair
	// queue; Unrepairable counts distinct stripes reported past their
	// code's loss tolerance or with no node to host a rebuilt block
	// (never launched).
	StripesQueued int
	Unrepairable  int
	// BlocksRepaired counts committed block rebuilds, split into LRC
	// local-group repairs and full (global) reconstructions.
	BlocksRepaired int
	LocalRepairs   int
	GlobalRepairs  int
	// RepairBytes is the network read volume of committed repairs.
	RepairBytes float64
	// FirstRepairAt is the commit time of the first rebuilt block, -1 if
	// none committed. FullRedundancyAt is when the last known-lost block
	// of a repairable stripe healed; -1 while losses remain or any
	// stripe is unrepairable.
	FirstRepairAt    float64
	FullRedundancyAt float64
}

// Result is the outcome of one run.
type Result struct {
	Scheduler string
	// Failed lists the failed nodes (pre-run and mid-run).
	Failed []topology.NodeID
	Jobs   []JobResult
	// Makespan is when the last job finished.
	Makespan float64
	// BytesMoved is the total network volume of completed transfers
	// (repair flows included; RepairBytes isolates the repair share).
	BytesMoved float64
	// WastedBytes is the extra volume moved by redundant degraded-read
	// flows cancelled after the first k completed (hedged runs only).
	// Disjoint from BytesMoved, which counts completed flows.
	WastedBytes float64
	// Repair holds the background healer's metrics; nil when the run
	// emitted no repair events (repair disabled, or no failures).
	Repair *RepairStats
}
