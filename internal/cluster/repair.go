// The wire half of the background healer: the master plans repairs
// from its DFS metadata, but the rebuilt bytes come from the workers —
// the destination node's worker fetches the source blocks from its
// peers and runs the real Reed-Solomon decode, exactly as a degraded
// read does. The master then re-runs the reconstruction through the
// same dfs.RepairBlock path the in-process engine uses, which verifies
// against ground truth and enforces the double-write guard before the
// placement moves.

package cluster

import (
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
)

// CommitRepair implements runtime.Backend: the destination's
// worker rebuilds the block for real over the wire, then the master
// verifies and commits the placement move. A dead destination or source
// surfaces as *runtime.DeadNodeError (via callWorker's mapping), which
// feeds the runtime's failure recovery; the repair is then re-queued.
func (b *clusterBackend) CommitRepair(key repair.Key, bp repair.BlockPlan) ([]runtime.RepairedTask, error) {
	req := &mapReq{File: key.File, Stripe: key.Stripe, Index: bp.Index}
	for _, src := range bp.Sources {
		req.Fetch = append(req.Fetch, fetchSpec{Node: int(src.Node), Addr: b.m.workerAddr(src.Node), Stripe: key.Stripe, Index: src.Index})
	}
	if _, err := b.m.callWorker(bp.Dest, "repair-block", req, nil); err != nil {
		return nil, err
	}
	return b.Healer.CommitRepair(key, bp)
}
