package runtime

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// TestHealerContract checks the shared healer on a data-bearing and a
// metadata-only store: a native block comes back as task stripe·k+index of
// every job reading its file, a parity block as no task, and a destination
// that died after planning as a *DeadNodeError the runtime recovers from.
func TestHealerContract(t *testing.T) {
	for _, meta := range []bool{false, true} {
		c := topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
		code, err := erasure.New(6, 4)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := dfs.New(c, code, 16, nil, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		files := make([]*dfs.File, 2)
		for i, name := range []string{"in", "other"} {
			if meta {
				files[i], err = fs.CreateMeta(name, 12)
			} else {
				data := make([]byte, 12*16)
				for j := range data {
					data[j] = byte(i*31 + j)
				}
				files[i], err = fs.Write(name, data)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		in := files[0]
		h := &Healer{FS: fs, Files: []*dfs.File{in, files[1], in}, BlockBytes: 16}

		// Stripe 1 loses native block 2 and parity block 5.
		native, parity := erasure.BlockID{Stripe: 1, Index: 2}, erasure.BlockID{Stripe: 1, Index: 5}
		c.FailNode(in.Placement.Holder(native))
		c.FailNode(in.Placement.Holder(parity))
		plan, err := h.PlanStripeRepair(repair.Key{File: "in", Stripe: 1})
		if err != nil || len(plan.Blocks) != 2 || plan.Blocks[0].Index != 2 || plan.Blocks[1].Index != 5 {
			t.Fatalf("meta=%v: plan %+v, err %v; want blocks 2 and 5", meta, plan, err)
		}
		refs, err := h.CommitRepair(plan.Key, plan.Blocks[0])
		want := []RepairedTask{{Job: 0, Task: 6}, {Job: 2, Task: 6}}
		if err != nil || !reflect.DeepEqual(refs, want) {
			t.Fatalf("meta=%v: native commit gave %v, err %v; want %v", meta, refs, err, want)
		}
		if h.TaskBlock(6) != native || in.Placement.Holder(native) != plan.Blocks[0].Dest {
			t.Fatalf("meta=%v: task 6 reads %v held by %d, want %v on %d",
				meta, h.TaskBlock(6), in.Placement.Holder(native), native, plan.Blocks[0].Dest)
		}
		if refs, err := h.CommitRepair(plan.Key, plan.Blocks[1]); err != nil || refs != nil {
			t.Fatalf("meta=%v: parity commit gave %v, err %v; want no task", meta, refs, err)
		}

		// A destination that dies between planning and commit.
		if holders := in.Placement.StripeHolders(0); !slices.ContainsFunc(holders, func(id topology.NodeID) bool { return !c.Alive(id) }) {
			c.FailNode(holders[0])
		}
		plan, err = h.PlanStripeRepair(repair.Key{File: "in", Stripe: 0})
		if err != nil || len(plan.Blocks) == 0 {
			t.Fatalf("meta=%v: plan %+v, err %v", meta, plan, err)
		}
		dest := plan.Blocks[0].Dest
		c.FailNode(dest)
		var dn *DeadNodeError
		if _, err := h.CommitRepair(plan.Key, plan.Blocks[0]); !errors.As(err, &dn) || !reflect.DeepEqual(dn.Nodes, []topology.NodeID{dest}) {
			t.Fatalf("meta=%v: commit to dead node %d gave %v, want a DeadNodeError naming it", meta, dest, err)
		}
	}
}
