package runtime

import (
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// Healer implements Backend's input planning and storage half over a
// dfs.FS, for every engine: the simulator keeps its inputs in a
// metadata-only store, minimr and the TCP cluster in a data-bearing one.
// Which blocks a map input or a repair reads is the DFS's one rule; the
// Healer turns it into transfers, and adds the way back from a rebuilt
// block to the tasks that read it. A job's map tasks are its input file's
// native blocks in (stripe, index) order, so task t reads TaskBlock(t).
type Healer struct {
	FS *dfs.FS
	// Files[job] is the job's input file (see AddJob).
	Files []*dfs.File
	// BlockBytes is the network volume of reading one block.
	BlockBytes float64
	// Strategy and RNG pick a degraded read's sources. RNG is the only
	// stream PlanInput draws from; an engine may draw its own costs from it
	// too (the simulator does), interleaving with the picks.
	Strategy dfs.SelectionStrategy
	RNG      *stats.RNG
}

// TaskBlock is the input block of map task t of any job.
func (h *Healer) TaskBlock(t int) erasure.BlockID {
	k := h.FS.Code().K()
	return erasure.BlockID{Stripe: t / k, Index: t % k}
}

// AddJob makes file the next job's input and returns the job's n map
// tasks: task t reads TaskBlock(t) from the block's holder.
func (h *Healer) AddJob(file *dfs.File, n int) []sched.TaskSpec {
	h.Files = append(h.Files, file)
	tasks := make([]sched.TaskSpec, n)
	for t := range tasks {
		b := h.TaskBlock(t)
		tasks[t] = sched.TaskSpec{Block: b, Holder: file.Placement.Holder(b)}
	}
	return tasks
}

// PlanInput implements Backend: a node-local input needs no transfer, a
// rack-local or remote one one block from its holder, and a degraded one
// the sources dfs.PickRepairSources picks, then the spares
// dfs.SpareSources grants against the budget. The plan's Sources name the
// blocks its Transfers read, so a backend holding bytes fetches or decodes
// exactly what the runtime charges. It appends to the empty plan's slices
// (see Backend).
func (h *Healer) PlanInput(job, task int, class sched.Class, node topology.NodeID, spares SpareBudget, plan *InputPlan) error {
	block := h.TaskBlock(task)
	place := h.Files[job].Placement
	switch class {
	case sched.ClassNodeLocal:
		return nil
	case sched.ClassRackLocal, sched.ClassRemote:
		plan.Sources = append(plan.Sources, repair.Source{Node: place.Holder(block), Index: block.Index})
	case sched.ClassDegraded:
		sources, err := dfs.PickRepairSources(h.FS.Cluster(), h.FS.Code(), place, block, node, h.Strategy, h.RNG)
		if err != nil {
			return fmt.Errorf("runtime: degraded read of %v: %w", block, err)
		}
		plan.Sources = append(plan.Sources, sources...)
		plan.Sources = dfs.SpareSources(h.FS.Cluster(), place, block, sources, spares.For(len(sources)), plan.Sources)
		plan.Spares = len(plan.Sources) - len(sources)
	default:
		return fmt.Errorf("runtime: unknown assignment class %v", class)
	}
	for _, src := range plan.Sources {
		plan.Transfers = append(plan.Transfers, Transfer{Src: src.Node, Bytes: h.BlockBytes})
	}
	return nil
}

// ScanLostBlocks implements Backend via dfs.FS.LostBlocks.
func (h *Healer) ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	return h.FS.LostBlocks(failed)
}

// PlanStripeRepair implements Backend via dfs.FS.PlanStripeRepair.
func (h *Healer) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	return h.FS.PlanStripeRepair(key)
}

// CommitRepair implements Backend: the DFS rebuilds the block (decoding
// and verifying it when the file holds bytes) and moves its placement, and
// the tasks of every job reading that file whose input it is come back.
// A parity block backs no task; a task index past a job's task count
// (stripe padding) is ignored by the runtime. A destination that died
// since planning is a *DeadNodeError, so the stripe is re-queued.
func (h *Healer) CommitRepair(key repair.Key, bp repair.BlockPlan) ([]RepairedTask, error) {
	if !h.FS.Cluster().Alive(bp.Dest) {
		return nil, &DeadNodeError{Nodes: []topology.NodeID{bp.Dest}}
	}
	block := erasure.BlockID{Stripe: key.Stripe, Index: bp.Index}
	if _, err := h.FS.RepairBlock(key.File, block, bp.Dest, bp.Sources); err != nil {
		return nil, err
	}
	k := h.FS.Code().K()
	if bp.Index >= k {
		return nil, nil
	}
	var refs []RepairedTask
	for j, f := range h.Files {
		if f.Name == key.File {
			refs = append(refs, RepairedTask{Job: j, Task: key.Stripe*k + bp.Index})
		}
	}
	return refs, nil
}

// RepairBlockBytes implements Backend.
func (h *Healer) RepairBlockBytes() float64 { return h.BlockBytes }
