// The real-bytes half of the background healer: repairs delegate to the
// DFS, which reconstructs lost blocks from real surviving shards and
// verifies them against ground truth before the placement moves. The
// runtime charges the source reads through the shared network model, so
// repair traffic genuinely competes with foreground jobs.

package minimr

import (
	"fmt"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/runtime"
	"degradedfirst/internal/topology"
)

// Healer implements the repair methods of runtime.Backend over the DFS.
// Both the in-process backend and the distributed master's embed the
// harness's: blocks and holders are the harness's slices, so a committed
// repair moves the cached holder every later plan reads.
type Healer struct {
	fs      *dfs.FS
	jobs    []Job
	blocks  [][]erasure.BlockID
	holders [][]topology.NodeID
}

// ScanLostBlocks implements runtime.Backend via dfs.FS.LostBlocks.
func (h *Healer) ScanLostBlocks(failed []topology.NodeID) ([]repair.StripePlan, error) {
	return h.fs.LostBlocks(failed)
}

// PlanStripeRepair implements runtime.Backend: a launch-time
// re-plan from the live placement.
func (h *Healer) PlanStripeRepair(key repair.Key) (repair.StripePlan, error) {
	return h.fs.PlanStripeRepair(key)
}

// CommitRepair implements runtime.Backend: reconstruct the block
// for real in the DFS, move its placement, and report the foreground
// tasks whose input came back (native blocks of a job's input file;
// parity repairs back no task). The cached holder moves too, so a later
// non-degraded read charges its transfer from the rebuilt copy.
func (h *Healer) CommitRepair(key repair.Key, bp repair.BlockPlan) ([]runtime.RepairedTask, error) {
	block := erasure.BlockID{Stripe: key.Stripe, Index: bp.Index}
	if _, err := h.fs.RepairBlock(key.File, block, bp.Dest, bp.Sources); err != nil {
		return nil, fmt.Errorf("minimr: %w", err)
	}
	var refs []runtime.RepairedTask
	for j := range h.jobs {
		if h.jobs[j].Input != key.File {
			continue
		}
		for t, tb := range h.blocks[j] {
			if tb == block {
				h.holders[j][t] = bp.Dest
				refs = append(refs, runtime.RepairedTask{Job: j, Task: t})
			}
		}
	}
	return refs, nil
}

// RepairBlockBytes implements runtime.Backend.
func (h *Healer) RepairBlockBytes() float64 { return float64(h.fs.BlockSize()) }
