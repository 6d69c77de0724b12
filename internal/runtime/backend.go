// Package runtime is the shared cluster runtime behind both MapReduce
// engines: it owns the master loop — heartbeat scheduling, slot
// accounting, the FIFO job queue, map/reduce task lifecycle, shuffle
// dispatch, and failure/re-execution handling — while a small Backend
// supplies what differs between the discrete-event simulator
// (internal/mapred: simulated costs, no data) and the real-execution
// engine (internal/minimr: real bytes, real map/reduce functions).
//
// Every lifecycle transition is emitted as a trace.Event; the per-task
// metrics (Result) are built by a Builder consuming that stream, so a
// recorded trace reconstructs the run's results exactly.
//
// The engine contract is Backend: task input and cost, the shuffle, and
// the storage half of the background healer. Every engine implements all
// of it, whether or not a run turns hedging or repair on; input planning
// and the storage half are one Healer over the engine's dfs.FS. The
// runtime drives every engine down one path: it starts a task's work
// (Execute, StartReduce) and awaits it at the task's virtual completion
// instant (AwaitOutput, AwaitReduce), so an engine whose work runs
// outside the simulation goroutine (minimr and the TCP cluster) blocks
// there, and the simulator returns at once. The runtime itself starts no
// goroutine.
package runtime

import (
	"fmt"

	"degradedfirst/internal/jobsched"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/topology"
)

// Transfer is one network read a map task needs before processing: Bytes
// from Src to the task's execution node.
type Transfer struct {
	Src   topology.NodeID
	Bytes float64
}

// Chunk is one map-output partition bound for one reducer. Data carries
// backend payload (real intermediate records for minimr, nil for the
// simulator); the runtime only moves Bytes through the network model and
// hands Data back via Backend.Deliver.
type Chunk struct {
	Bytes float64
	Data  any
}

// JobSpec describes one job to the runtime: its map tasks (one per input
// block, with the block's holder; Lost is recomputed at submission time
// from the cluster's failure state) and its reducer count.
type JobSpec struct {
	Name        string
	SubmitAt    float64
	Tasks       []sched.TaskSpec
	NumReducers int

	// JobMeta (Tenant, Weight, Deadline) feeds the job-level scheduling
	// policies (Options.JobSched).
	jobsched.JobMeta
}

// SpareBudget is how many spare sources a degraded fan-in may be given
// beyond its primaries: Fixed + PerPrimary for each primary. The budget
// can depend on the fan-in's width, which only the backend knows once it
// has chosen the primaries, so it travels as the two terms. The zero
// value asks for none.
type SpareBudget struct {
	Fixed, PerPrimary int
}

// For returns the budget for a fan-in of the given primary count.
func (s SpareBudget) For(primaries int) int { return s.Fixed + s.PerPrimary*primaries }

// InputPlan is how a map task gets its input: the network reads to
// charge, and the payload Execute receives once they land.
type InputPlan struct {
	// Transfers are the reads (empty for node-local input): the primaries
	// the input needs, followed by the Spares granted against the budget.
	Transfers []Transfer
	// Spares counts the trailing spare transfers. Any len(Transfers)-Spares
	// of the transfers reconstruct the input, so the runtime may race them.
	Spares int
	// Sources are the stripe blocks the Transfers read, index-aligned with
	// them (Healer.PlanInput fills them; the runtime does not read them).
	Sources []repair.Source
	// Input is opaque to the runtime and handed to Execute.
	Input any
}

// RepairedTask references one foreground map task whose lost input block
// a background repair just rebuilt: the task can drop its degraded
// classification and read the block normally from the new holder.
type RepairedTask struct {
	Job  int
	Task int
}

// Backend supplies the engine-specific halves of the task lifecycle: task
// input access and cost, and the store the background healer repairs.
// Methods are keyed by (job, task/reducer) indices matching the JobSpec
// slice passed to Run. All methods are called from the simulation
// goroutine, and none may depend on map iteration order; only PlanInput's
// primary pick may draw from an RNG.
type Backend interface {
	// PlanInput plans the whole input fan-in of task `task` of job `job`
	// running on `node` with the given scheduling class. For a degraded
	// task that is the degraded read (k source blocks) plus up to
	// spares.For(k) further surviving blocks of the stripe, any k of which
	// decode the input; the spares are chosen without RNG draws, so a
	// hedged run and an unhedged one consume identical random streams, and
	// there may be fewer than asked for (none for a locality-aware code's
	// local repair group, which is not any-k substitutable). The budget is
	// zero unless a hedge policy is active, and ignored for other classes.
	// Every engine plans with Healer.PlanInput and attaches its payload.
	// The plan is written into plan, which arrives empty: its Sources and
	// Transfers have length 0 but may hold an earlier attempt's storage,
	// which they append into. The runtime hands that storage to later
	// attempts, so a backend keeps neither slice past the call. Errors
	// abort the run verbatim.
	PlanInput(job, task int, class sched.Class, node topology.NodeID, spares SpareBudget, plan *InputPlan) error
	// Execute starts the map task once its input is available, returning
	// the processing duration (seconds, already scaled by the node's
	// speed factor) and an opaque pending payload for AwaitOutput.
	Execute(job, task int, node topology.NodeID, input any) (dur float64, pending any)
	// AwaitOutput is called at the map task's virtual completion instant
	// with Execute's pending payload, and returns the map's output as one
	// Chunk per reducer (len == NumReducers; nil for a map-only job). It
	// may block until work running outside the simulation goroutine has
	// finished, so real wall-clock time passes only inside it while the
	// virtual schedule stays put. It is called exactly once for every
	// attempt that completes, and never for one abandoned by a requeue.
	// The runtime never writes the returned slice or its chunks, so a
	// backend may return one slice for every map of a job. A
	// *DeadNodeError requeues the task via failure recovery; any other
	// error aborts the run.
	AwaitOutput(job, task int, node topology.NodeID, pending any) ([]Chunk, error)
	// Deliver hands one received shuffle chunk to reducer `reducer`
	// running on `node`. A backend may accept the chunk before its bytes
	// have moved (the distributed backend starts the real fetch and
	// returns); a fetch that fails then surfaces from AwaitReduce, which
	// is where a dead mapper is reported. Any error from Deliver, a
	// *DeadNodeError included, aborts the run.
	Deliver(job, reducer int, node topology.NodeID, c Chunk) error
	// StartReduce starts a reducer once every map output has been
	// delivered to it, and returns its processing time on `node` given
	// the shuffle volume received. A backend may hand the real reduce off
	// here for AwaitReduce to collect.
	StartReduce(job, reducer int, node topology.NodeID, receivedBytes float64) float64
	// AwaitReduce is called at the reducer's virtual completion instant,
	// once per reducer that finishes, and blocks until the reduce
	// StartReduce began has finished and its output is part of the job's.
	// A reducer reset before it finishes is never awaited. Errors follow
	// the AwaitOutput contract: a *DeadNodeError restarts the reducer,
	// and may name a mapper whose chunk Deliver accepted but whose fetch
	// failed, so that mapper's output is made again.
	AwaitReduce(job, reducer int, node topology.NodeID) error
	// ReduceReset discards a reducer's received state, and any reduce
	// StartReduce began for it, when its node fails and the reducer
	// restarts elsewhere.
	ReduceReset(job, reducer int)

	// The healer's storage half, called only when Options.Repair is
	// active.

	// ScanLostBlocks returns a repair plan for every stripe that lost a
	// block to one of the failed nodes (all lost blocks of a touched
	// stripe, including earlier losses; Unrepairable set for stripes
	// past n-k losses). An empty failed set scans the whole store.
	ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error)
	// PlanStripeRepair re-plans one stripe from live placement state.
	// The healer calls it at launch time so blocks committed since the
	// stripe was queued are not rebuilt again.
	PlanStripeRepair(key repair.Key) (repair.StripePlan, error)
	// CommitRepair finalizes one rebuilt block after its source flows
	// complete: reconstruct (for engines holding real bytes), store on
	// bp.Dest, and move the placement. It returns the foreground tasks
	// whose input block this was, so the runtime can restore them. A
	// *DeadNodeError feeds failure recovery; other errors abort the run.
	CommitRepair(key repair.Key, bp repair.BlockPlan) ([]RepairedTask, error)
	// RepairBlockBytes is the network volume of reading one block.
	RepairBlockBytes() float64
}

// DeadNodeError reports nodes discovered dead during a backend
// operation: an RPC to them timed out, their connection dropped, or a
// peer transfer from them failed. The runtime feeds the nodes into the
// same injectFailure path as heartbeat-detected deaths.
type DeadNodeError struct {
	Nodes []topology.NodeID
}

func (e *DeadNodeError) Error() string {
	return fmt.Sprintf("runtime: nodes %v found dead during backend operation", e.Nodes)
}
