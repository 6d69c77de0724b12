// Background-repair planning for the simulated backend: the healer's
// engine-specific half over the per-job placements. No bytes exist in
// this engine, so a "repair" is pure bookkeeping — pick survivors to
// read, pick a destination, and move the placement when the runtime's
// repair flows complete — while the network cost of the reads is what
// actually competes with foreground traffic.

package mapred

import (
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
)

// jobFile is the synthetic DFS name of one job's input file in repair
// plans and trace events. The job index prefix keeps names unique even
// when two jobs share a spec name.
func (b *simBackend) jobFile(job int) string {
	return fmt.Sprintf("job%d/%s", job, b.specs[job].Name)
}

// fileJob resolves a synthetic file name back to its job index.
func (b *simBackend) fileJob(file string) (int, error) {
	if b.fileIdx == nil {
		b.fileIdx = make(map[string]int, len(b.specs))
		for i := range b.specs {
			b.fileIdx[b.jobFile(i)] = i
		}
	}
	job, ok := b.fileIdx[file]
	if !ok {
		return 0, fmt.Errorf("mapred: unknown repair file %q", file)
	}
	return job, nil
}

// planStripe builds the repair plan for one stripe of one job's file:
// dfs.PlanStripe's plan for a code without local groups (a full
// reconstruction reads the k lowest-index survivors), trimmed to the
// configured code. When RepairBlockCount < k (a locality-aware code per
// footnote 1) a single-loss stripe repairs locally from the first
// RepairBlockCount of those survivors. Multi-loss stripes keep the full
// k-source path — a local group with two losses cannot self-heal.
func (b *simBackend) planStripe(job, s int) (repair.StripePlan, error) {
	plan, err := dfs.PlanStripe(b.cluster, nil, b.places[job], b.jobFile(job), s)
	if r := b.cfg.RepairBlockCount; err == nil && len(plan.Blocks) == 1 && r < plan.K {
		plan.Blocks[0].Sources = plan.Blocks[0].Sources[:r]
		plan.Blocks[0].Local = true
	}
	return plan, err
}

// ScanLostBlocks implements runtime.Backend: every stripe of every job's
// file that lost a block to one of the failed nodes, in job then stripe
// order. Each plan covers all of its stripe's losses, so a rescan after a
// second failure subsumes earlier pending work.
func (b *simBackend) ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	var plans []repair.StripePlan
	for job, place := range b.places {
		for _, s := range dfs.StripesLostTo(b.cluster, place, failed) {
			plan, err := b.planStripe(job, s)
			if err != nil {
				return nil, err
			}
			plans = append(plans, plan)
		}
	}
	return plans, nil
}

// PlanStripeRepair implements runtime.Backend: a launch-time
// re-plan from the live placement, so blocks repaired since the stripe
// was queued are not rebuilt twice.
func (b *simBackend) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	job, err := b.fileJob(key.File)
	if err != nil {
		return repair.StripePlan{}, err
	}
	if key.Stripe < 0 || key.Stripe >= b.places[job].NumStripes() {
		return repair.StripePlan{}, fmt.Errorf("mapred: job %d has no stripe %d", job, key.Stripe)
	}
	return b.planStripe(job, key.Stripe)
}

// CommitRepair implements runtime.Backend: move the block's
// placement to its rebuilt copy and report the foreground task (if any —
// parity blocks back no task) whose input just came back.
func (b *simBackend) CommitRepair(key repair.Key, bp repair.BlockPlan) ([]runtime.RepairedTask, error) {
	job, err := b.fileJob(key.File)
	if err != nil {
		return nil, err
	}
	place := b.places[job]
	block := erasure.BlockID{Stripe: key.Stripe, Index: bp.Index}
	if b.cluster.Alive(place.Holder(block)) {
		return nil, fmt.Errorf("mapred: block %v of job %d is not lost (holder %d alive)",
			block, job, place.Holder(block))
	}
	if !b.cluster.Alive(bp.Dest) {
		return nil, &runtime.DeadNodeError{Nodes: []topology.NodeID{bp.Dest}}
	}
	place.Reassign(block, bp.Dest)
	var refs []runtime.RepairedTask
	for t, tb := range b.blocks[job] {
		if tb == block {
			refs = append(refs, runtime.RepairedTask{Job: job, Task: t})
		}
	}
	return refs, nil
}

// RepairBlockBytes implements runtime.Backend.
func (b *simBackend) RepairBlockBytes() float64 { return b.cfg.BlockSizeBytes }
