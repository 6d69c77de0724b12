package mapred

import (
	"degradedfirst/internal/repair"
	"degradedfirst/internal/topology"
)

// ScanLostBlocks implements runtime.Backend: the store's plans, trimmed
// to the modelled code.
func (b *simBackend) ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	plans, err := b.Healer.ScanLostBlocks(failed)
	for i := range plans {
		b.trimPlan(&plans[i])
	}
	return plans, err
}

// PlanStripeRepair implements runtime.Backend: the store's launch-time
// re-plan, trimmed to the modelled code.
func (b *simBackend) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	plan, err := b.Healer.PlanStripeRepair(key)
	if err == nil {
		b.trimPlan(&plan)
	}
	return plan, err
}

// trimPlan models a locality-aware code (footnote 1) that the store does
// not have: when RepairBlockCount < k, a single-loss stripe repairs locally
// from the first RepairBlockCount of the k lowest-index survivors the
// Reed-Solomon plan reads. Multi-loss stripes keep the full k-source path;
// a local group with two losses cannot self-heal.
func (b *simBackend) trimPlan(plan *repair.StripePlan) {
	if r := b.cfg.RepairBlockCount; len(plan.Blocks) == 1 && r < plan.K {
		plan.Blocks[0].Sources = plan.Blocks[0].Sources[:r]
		plan.Blocks[0].Local = true
	}
}
