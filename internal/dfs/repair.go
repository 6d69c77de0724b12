// Background-repair planning and commit: the DFS side of the proactive
// healer. The scan APIs turn node failures into repair.StripePlans —
// which lost blocks each degraded stripe has, which survivors to read,
// and where to write the rebuilt copies — by the same repair-source rule
// the degraded-read path uses (repairSet). The commit API performs the
// reconstruction for real on data-bearing files and moves the block's
// placement to its new holder.

package dfs

import (
	"fmt"
	"slices"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/topology"
)

// PickRepairDestination chooses the node a rebuilt block of stripe s is
// written to: the lowest-ID alive node that holds no block of the
// stripe and is not already taken by another block of the same repair.
// A first pass keeps the Section III rack constraint (at most n-k
// blocks of a stripe per rack, counting taken destinations); when no
// node satisfies it the constraint is dropped, matching how HDFS
// re-replication degrades on small clusters. The choice is
// deterministic — no RNG — so repair planning never perturbs the random
// streams of the foreground run.
func PickRepairDestination(c *topology.Cluster, p *placement.Placement, s int,
	taken map[topology.NodeID]bool) (topology.NodeID, error) {

	holders := make(map[topology.NodeID]bool, p.N())
	perRack := make(map[topology.RackID]int)
	for _, h := range p.StripeHolders(s) {
		holders[h] = true
		if c.Alive(h) {
			perRack[c.RackOf(h)]++
		}
	}
	for id := range taken {
		perRack[c.RackOf(id)]++
	}
	limit := p.N() - p.K()
	for _, strict := range []bool{true, false} {
		for _, node := range c.Nodes() {
			if node.Failed() || holders[node.ID] || taken[node.ID] {
				continue
			}
			if strict && perRack[node.Rack] >= limit {
				continue
			}
			return node.ID, nil
		}
	}
	return -1, fmt.Errorf("dfs: no alive node can host a rebuilt block of stripe %d", s)
}

// planStripe builds the repair plan for stripe s of the placed file:
// one BlockPlan per lost block (data or parity), or an unrepairable
// verdict when the survivors do not determine every lost block or no
// alive node can host a rebuilt one. The code answers the first exactly,
// for any loss pattern of any family.
//
// Source selection is the degraded-read path's repairSet rule, kept
// deterministic: where a read draws k random survivors, the healer reads
// the k lowest-index ones.
func planStripe(c *topology.Cluster, code erasure.Coder, p *placement.Placement,
	file string, s int) repair.StripePlan {

	plan := repair.StripePlan{Key: repair.Key{File: file, Stripe: s}}
	holders := p.StripeHolders(s)
	var lost, alive []int
	for i, h := range holders {
		if c.Alive(h) {
			alive = append(alive, i)
		} else {
			lost = append(lost, i)
		}
	}
	plan.Lost = len(lost)
	plan.Unrepairable = slices.ContainsFunc(lost, func(idx int) bool { return !code.Determines(idx, alive) })
	if len(lost) == 0 || plan.Unrepairable {
		return plan
	}
	taken := make(map[topology.NodeID]bool, len(lost))
	for _, idx := range lost {
		dest, err := PickRepairDestination(c, p, s, taken)
		if err != nil {
			// No alive node is free to host the block: the stripe
			// stays degraded.
			return repair.StripePlan{Key: plan.Key, Lost: plan.Lost, Unrepairable: true}
		}
		taken[dest] = true
		bp := repair.BlockPlan{Index: idx, Dest: dest}
		set, local := repairSet(code, idx, alive)
		if set == nil {
			set = alive[:p.K()]
		}
		for _, i := range set {
			bp.Sources = append(bp.Sources, repair.Source{Node: holders[i], Index: i})
		}
		bp.Local = local
		plan.Blocks = append(plan.Blocks, bp)
	}
	return plan
}

// LostBlocks scans every file for stripes that lost a block to one of
// the failed nodes and returns their repair plans, in file-creation
// then stripe order. Each plan covers all lost blocks of its stripe —
// including losses from earlier failures — so re-scanning after a
// second failure subsumes the first scan's pending work. Stripes whose
// losses the code cannot rebuild, or that no alive node can host, come
// back with Unrepairable set rather than an error: the healer reports
// them distinctly and never launches them. A nil or empty failed set
// scans for every lost block in the system. The error is always nil.
func (fs *FS) LostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	var plans []repair.StripePlan
	for _, name := range fs.names {
		p := fs.files[name].Placement
		for _, s := range stripesLostTo(fs.cluster, p, failed) {
			plans = append(plans, planStripe(fs.cluster, fs.code, p, name, s))
		}
	}
	return plans, nil
}

// stripesLostTo returns, in order, the stripes of p with a block on a
// dead node that is one of failed — or on any dead node when failed is
// empty.
func stripesLostTo(c *topology.Cluster, p *placement.Placement, failed []topology.NodeID) []int {
	var stripes []int
	for s := 0; s < p.NumStripes(); s++ {
		for _, h := range p.StripeHolders(s) {
			if !c.Alive(h) && (len(failed) == 0 || slices.Contains(failed, h)) {
				stripes = append(stripes, s)
				break
			}
		}
	}
	return stripes
}

// PlanStripeRepair re-plans one stripe from the live placement. The
// healer calls it at launch time (not enqueue time) so blocks already
// committed by an earlier pass are no longer planned — the guarantee
// that no block is ever written twice.
func (fs *FS) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	f, err := fs.File(key.File)
	if err != nil {
		return repair.StripePlan{}, err
	}
	if key.Stripe < 0 || key.Stripe >= f.NumStripes() {
		return repair.StripePlan{}, fmt.Errorf("dfs: file %q has no stripe %d", key.File, key.Stripe)
	}
	return planStripe(fs.cluster, fs.code, f.Placement, key.File, key.Stripe), nil
}

// RepairBlock commits the reconstruction of lost block b onto dst: for
// data-bearing files it decodes the block from the given sources for
// real, checking it against the stored ground truth window by window as
// it is rebuilt (erasure's CompareBlock), and only then moves the
// placement; metadata-only files move the placement directly. Reports
// whether the repair used an LRC local group (fewer than k reads). It is
// an error to repair a block whose holder is alive — the double-write
// guard.
func (fs *FS) RepairBlock(file string, b erasure.BlockID, dst topology.NodeID,
	sources []repair.Source) (local bool, err error) {

	f, err := fs.File(file)
	if err != nil {
		return false, err
	}
	if fs.cluster.Alive(f.Placement.Holder(b)) {
		return false, fmt.Errorf("dfs: block %v of %q is not lost (holder %d alive)", b, file, f.Placement.Holder(b))
	}
	if !fs.cluster.Alive(dst) {
		return false, fmt.Errorf("dfs: repair destination %d for %v of %q is dead", dst, b, file)
	}
	for _, h := range f.Placement.StripeHolders(b.Stripe) {
		if h == dst {
			return false, fmt.Errorf("dfs: destination %d already holds a block of stripe %d of %q", dst, b.Stripe, file)
		}
	}
	srcIdx := make([]int, len(sources))
	for i, s := range sources {
		srcIdx[i] = s.Index
	}
	if f.HasData() {
		shards := make([][]byte, len(sources))
		for i, idx := range srcIdx {
			shards[i] = f.blocks[b.Stripe][idx]
		}
		at, err := fs.code.CompareBlock(f.blocks[b.Stripe][b.Index], b.Index, srcIdx, shards)
		if err != nil {
			return false, fmt.Errorf("dfs: repairing %v of %q: %w", b, file, err)
		}
		if at >= 0 {
			return false, fmt.Errorf("dfs: repaired %v of %q differs from ground truth at byte %d", b, file, at)
		}
	}
	f.Placement.Reassign(b, dst)
	// Local: the sources were exactly the block's local repair group.
	group, local := repairSet(fs.code, b.Index, srcIdx)
	return local && len(group) == len(srcIdx), nil
}
