package runtime

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
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

// TestHealerPlanInput holds the one input planner every engine uses: the
// sources a code's repair rule picks for task 0 (block 0 of stripe 0),
// then the spares the budget grants, with Sources and Transfers
// index-aligned and no source on a dead node.
func TestHealerPlanInput(t *testing.T) {
	rs, err := erasure.New(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	lrc, err := erasure.NewLRC(4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		code   erasure.Coder
		class  sched.Class
		budget SpareBudget
		lost   []int // stripe 0's blocks whose holders fail
		want   int   // primaries
		spares int
		srcIdx []int // the exact source indices, where the pick is not random
		draws  bool  // whether the pick draws from the RNG
	}{
		{name: "node-local", code: rs, class: sched.ClassNodeLocal, budget: SpareBudget{Fixed: 1}},
		{name: "remote", code: rs, class: sched.ClassRemote, budget: SpareBudget{Fixed: 1}, want: 1, srcIdx: []int{0}},
		// (6,4) with one loss leaves five survivors: at most one spare.
		{name: "RS, no budget", code: rs, class: sched.ClassDegraded, lost: []int{0}, want: 4, draws: true},
		{name: "RS, one spare", code: rs, class: sched.ClassDegraded, budget: SpareBudget{Fixed: 1}, lost: []int{0}, want: 4, spares: 1, draws: true},
		{name: "RS, budget past the survivors", code: rs, class: sched.ClassDegraded, budget: SpareBudget{Fixed: 1, PerPrimary: 1}, lost: []int{0}, want: 4, spares: 1, draws: true},
		// LRC(4,2,1): block 0's local group is data block 1 and local parity 4.
		{name: "LRC, group intact", code: lrc, class: sched.ClassDegraded, budget: SpareBudget{Fixed: 1}, lost: []int{0}, want: 2, srcIdx: []int{1, 4}},
		{name: "LRC, group broken", code: lrc, class: sched.ClassDegraded, budget: SpareBudget{Fixed: 1}, lost: []int{0, 1}, want: 5, srcIdx: []int{2, 3, 4, 5, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 1})
			fs, err := dfs.New(c, tc.code, 16, nil, stats.NewRNG(5))
			if err != nil {
				t.Fatal(err)
			}
			f, err := fs.CreateMeta("in", 8)
			if err != nil {
				t.Fatal(err)
			}
			h := &Healer{FS: fs, Files: []*dfs.File{f}, BlockBytes: 16, Strategy: dfs.RandomK, RNG: stats.NewRNG(7)}
			for _, idx := range tc.lost {
				c.FailNode(f.Placement.Holder(erasure.BlockID{Index: idx}))
			}
			plan, err := h.PlanInput(0, 0, tc.class, 0, tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Sources) != tc.want+tc.spares || plan.Spares != tc.spares || len(plan.Transfers) != len(plan.Sources) {
				t.Fatalf("%d sources, %d transfers, %d spares; want %d primaries and %d spares",
					len(plan.Sources), len(plan.Transfers), plan.Spares, tc.want, tc.spares)
			}
			var idx []int
			for i, src := range plan.Sources {
				if !c.Alive(src.Node) || src.Node != f.Placement.Holder(erasure.BlockID{Index: src.Index}) ||
					slices.Contains(idx, src.Index) || plan.Transfers[i] != (Transfer{Src: src.Node, Bytes: 16}) {
					t.Fatalf("source %d %+v (transfer %+v) is dead, misplaced, repeated or not one block", i, src, plan.Transfers[i])
				}
				idx = append(idx, src.Index)
			}
			if tc.srcIdx != nil && !slices.Equal(idx, tc.srcIdx) {
				t.Errorf("sources %v, want %v", idx, tc.srcIdx)
			}
			if drew := h.RNG.Float64() != stats.NewRNG(7).Float64(); drew != tc.draws {
				t.Errorf("drew from the RNG: %v, want %v", drew, tc.draws)
			}
		})
	}
}

// TestHealerErrors: a degraded read past the code's tolerance and a
// commit the DFS refuses come back as errors naming the block.
func TestHealerErrors(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 12, Racks: 3, MapSlotsPerNode: 1})
	fs, err := dfs.New(c, erasure.MustNew(6, 4), 16, nil, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	in, err := fs.CreateMeta("in", 8)
	if err != nil {
		t.Fatal(err)
	}
	h := &Healer{FS: fs, Files: []*dfs.File{in}, BlockBytes: 16}
	for _, id := range in.Placement.StripeHolders(0)[:3] {
		c.FailNode(id)
	}
	alive := c.AliveNodes()[0]
	if _, err := h.PlanInput(0, 0, sched.ClassDegraded, alive, SpareBudget{}); err == nil {
		t.Error("a degraded read of a stripe past its tolerance planned")
	}
	if _, err := h.CommitRepair(repair.Key{File: "in", Stripe: 1}, repair.BlockPlan{Index: 0, Dest: alive}); err == nil {
		t.Error("a repair of a block that is not lost committed")
	}
}
