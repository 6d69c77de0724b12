package dfs

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// failHolders fails the holders of the given blocks of f and returns the
// failed node IDs.
func failHolders(c *topology.Cluster, f *File, blocks ...erasure.BlockID) []topology.NodeID {
	var failed []topology.NodeID
	for _, b := range blocks {
		h := f.Placement.Holder(b)
		if c.Alive(h) {
			c.FailNode(h)
			failed = append(failed, h)
		}
	}
	return failed
}

func TestLostBlocksSingleFailure(t *testing.T) {
	fs := testFS(t)
	f, err := fs.Write("a", makeData(4*64*3)) // 3 stripes of (6,4)
	if err != nil {
		t.Fatal(err)
	}
	failed := failHolders(fs.Cluster(), f, erasure.BlockID{Stripe: 1, Index: 2})
	plans, err := fs.LostBlocks(failed)
	if err != nil {
		t.Fatal(err)
	}
	// The failed node may hold blocks of other stripes too; every plan
	// must be repairable, reference this file, and carry full k-source
	// block plans with distinct destinations.
	if len(plans) == 0 {
		t.Fatal("no plans for a failed holder")
	}
	sawStripe1 := false
	for _, p := range plans {
		if p.Key.File != "a" {
			t.Fatalf("plan for unexpected file %q", p.Key.File)
		}
		if p.Unrepairable {
			t.Fatalf("single failure marked unrepairable: %+v", p)
		}
		if p.Key.Stripe == 1 {
			sawStripe1 = true
		}
		if p.Lost != len(p.Blocks) {
			t.Fatalf("Lost=%d but %d block plans", p.Lost, len(p.Blocks))
		}
		for _, bp := range p.Blocks {
			if len(bp.Sources) != 4 {
				t.Fatalf("RS repair should read k=4 sources, got %d", len(bp.Sources))
			}
			if !fs.Cluster().Alive(bp.Dest) {
				t.Fatalf("dest %d dead", bp.Dest)
			}
			for _, s := range bp.Sources {
				if !fs.Cluster().Alive(s.Node) {
					t.Fatalf("source on dead node %d", s.Node)
				}
			}
		}
	}
	if !sawStripe1 {
		t.Fatal("stripe 1 missing from scan")
	}
}

func TestLostBlocksMultiNodeLossAndUnrepairable(t *testing.T) {
	// (6,4) tolerates 2 losses. Fail 3 holders of stripe 0: that stripe
	// must be reported unrepairable — distinctly, without panicking —
	// while stripes that lost <= 2 blocks stay repairable.
	fs := testFS(t)
	f, err := fs.Write("a", makeData(4*64*2))
	if err != nil {
		t.Fatal(err)
	}
	failed := failHolders(fs.Cluster(), f,
		erasure.BlockID{Stripe: 0, Index: 0},
		erasure.BlockID{Stripe: 0, Index: 1},
		erasure.BlockID{Stripe: 0, Index: 4})
	if len(failed) != 3 {
		t.Fatalf("expected 3 distinct holders, got %d", len(failed))
	}
	plans, err := fs.LostBlocks(failed)
	if err != nil {
		t.Fatal(err)
	}
	var stripe0 *repair.StripePlan
	for i := range plans {
		p := &plans[i]
		if p.Key.Stripe == 0 {
			stripe0 = p
			continue
		}
		if p.Unrepairable && p.Lost <= 2 {
			t.Fatalf("stripe %d with %d losses marked unrepairable", p.Key.Stripe, p.Lost)
		}
		if !p.Unrepairable && p.Lost != len(p.Blocks) {
			t.Fatalf("stripe %d: Lost=%d, blocks=%d", p.Key.Stripe, p.Lost, len(p.Blocks))
		}
	}
	if stripe0 == nil {
		t.Fatal("stripe 0 missing from scan")
	}
	if !stripe0.Unrepairable {
		t.Fatalf("stripe 0 with 3 losses not unrepairable: %+v", stripe0)
	}
	if stripe0.Lost != 3 || len(stripe0.Blocks) != 0 {
		t.Fatalf("unrepairable plan should report Lost=3 with no block plans: %+v", stripe0)
	}
}

func TestLostBlocksSubsumesEarlierFailures(t *testing.T) {
	// A rescan keyed on the second failed node still plans the block
	// lost to the first failure: plans cover every lost block of a
	// touched stripe.
	fs := testFS(t)
	f, err := fs.Write("a", makeData(4*64))
	if err != nil {
		t.Fatal(err)
	}
	first := failHolders(fs.Cluster(), f, erasure.BlockID{Stripe: 0, Index: 0})
	second := failHolders(fs.Cluster(), f, erasure.BlockID{Stripe: 0, Index: 3})
	_ = first
	plans, err := fs.LostBlocks(second)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if p.Key.Stripe != 0 {
			continue
		}
		if p.Lost != 2 || len(p.Blocks) != 2 {
			t.Fatalf("rescan should plan both lost blocks, got %+v", p)
		}
		if p.Blocks[0].Dest == p.Blocks[1].Dest {
			t.Fatalf("two rebuilt blocks of one stripe placed on one node %d", p.Blocks[0].Dest)
		}
		return
	}
	t.Fatal("stripe 0 missing from rescan")
}

func TestLostBlocksDeterministic(t *testing.T) {
	build := func() ([]repair.StripePlan, error) {
		fs, err := New(testCluster(), erasure.MustNew(6, 4), 64, nil, stats.NewRNG(1))
		if err != nil {
			return nil, err
		}
		f, err := fs.Write("a", makeData(4*64*4))
		if err != nil {
			return nil, err
		}
		failed := failHolders(fs.Cluster(), f,
			erasure.BlockID{Stripe: 0, Index: 1},
			erasure.BlockID{Stripe: 2, Index: 5})
		return fs.LostBlocks(failed)
	}
	a, err := build()
	if err != nil {
		t.Fatal(err)
	}
	b, err := build()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("plan counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Key != b[i].Key || a[i].Lost != b[i].Lost || len(a[i].Blocks) != len(b[i].Blocks) {
			t.Fatalf("plan %d differs: %+v vs %+v", i, a[i], b[i])
		}
		for j := range a[i].Blocks {
			x, y := a[i].Blocks[j], b[i].Blocks[j]
			if x.Index != y.Index || x.Dest != y.Dest || len(x.Sources) != len(y.Sources) {
				t.Fatalf("block plan %d/%d differs: %+v vs %+v", i, j, x, y)
			}
			for m := range x.Sources {
				if x.Sources[m] != y.Sources[m] {
					t.Fatalf("sources differ: %+v vs %+v", x, y)
				}
			}
		}
	}
}

func TestLRCLocalRepairReadsStrictlyFewerBytes(t *testing.T) {
	// LRC(4, 2, 1): 4 data blocks in 2 local groups of 2, one local
	// parity each, one global parity — n=7. A single data-block loss
	// repairs from its local group (2 sources) versus k=4 for the same
	// loss under RS(7, 4): strictly fewer bytes moved.
	lrc := mustLRC(t, 4, 2, 1)
	rs := erasure.MustNew(lrc.N(), lrc.K())
	lost := erasure.BlockID{Stripe: 0, Index: 1}

	plan := func(code erasure.Coder) repair.StripePlan {
		c := topology.MustNew(topology.Config{Nodes: 12, Racks: 4, MapSlotsPerNode: 1})
		fs, err := New(c, code, 64, nil, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Write("a", makeData(4*64))
		if err != nil {
			t.Fatal(err)
		}
		failHolders(c, f, lost)
		p, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	lp, rp := plan(lrc), plan(rs)
	if len(lp.Blocks) != 1 || len(rp.Blocks) != 1 {
		t.Fatalf("expected one block plan each: %+v / %+v", lp, rp)
	}
	if !lp.Blocks[0].Local {
		t.Fatalf("LRC single-loss plan not local: %+v", lp.Blocks[0])
	}
	if rp.Blocks[0].Local {
		t.Fatalf("RS plan marked local: %+v", rp.Blocks[0])
	}
	lb, rb := lp.ReadBytes(64), rp.ReadBytes(64)
	if !(lb < rb) {
		t.Fatalf("LRC local repair read %v bytes, RS read %v: want strictly fewer", lb, rb)
	}
}

func TestLRCBrokenGroupFallsBackToAllSurvivors(t *testing.T) {
	// Lose a data block AND its local parity: the local group is broken,
	// so the plan reads every survivor for the global decode.
	lrc := mustLRC(t, 4, 2, 1)
	c := topology.MustNew(topology.Config{Nodes: 12, Racks: 4, MapSlotsPerNode: 1})
	fs, err := New(c, lrc, 64, nil, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Write("a", makeData(4*64))
	if err != nil {
		t.Fatal(err)
	}
	group, ok := lrc.LocalRepairGroup(0)
	if !ok {
		t.Fatal("data block 0 has no local group")
	}
	// group = mates of block 0 plus its local parity; fail block 0 and
	// the parity (last entry).
	failHolders(c, f,
		erasure.BlockID{Stripe: 0, Index: 0},
		erasure.BlockID{Stripe: 0, Index: group[len(group)-1]})
	p, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p.Unrepairable {
		t.Fatalf("2 losses within n-k=3 marked unrepairable")
	}
	for _, bp := range p.Blocks {
		if bp.Local {
			t.Fatalf("broken-group block %d planned as local", bp.Index)
		}
		if len(bp.Sources) != lrc.N()-2 {
			t.Fatalf("fallback should read all %d survivors, got %d", lrc.N()-2, len(bp.Sources))
		}
	}
}

func TestPlanStripeLRCUnrepairableIsExact(t *testing.T) {
	// LRC(10,2,2), n-k = 4. Losing data blocks 0-3 of group 0 is within
	// n-k but undecodable (one local and two global equations for four
	// unknowns): the plan must say so instead of launching reads that
	// abort the run at commit. Losing one data block per group plus both
	// globals is also four losses, and repairs byte-exactly.
	lrc := mustLRC(t, 10, 2, 2)
	setup := func(lost ...int) (*FS, []erasure.BlockID) {
		c := topology.MustNew(topology.Config{Nodes: 20, Racks: 4, MapSlotsPerNode: 1})
		fs, err := New(c, lrc, 64, nil, stats.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Write("a", makeData(10*64))
		if err != nil {
			t.Fatal(err)
		}
		blocks := make([]erasure.BlockID, len(lost))
		for i, idx := range lost {
			blocks[i] = erasure.BlockID{Stripe: 0, Index: idx}
		}
		failHolders(c, f, blocks...)
		return fs, blocks
	}

	fs, _ := setup(0, 1, 2, 3)
	plans, err := fs.LostBlocks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || !plans[0].Unrepairable || plans[0].Lost != 4 || len(plans[0].Blocks) != 0 {
		t.Fatalf("four losses in one local group must plan Unrepairable with no reads: %+v", plans)
	}

	fs, lost := setup(0, 5, 12, 13)
	plans, err = fs.LostBlocks(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Unrepairable || len(plans[0].Blocks) != 4 {
		t.Fatalf("one loss per group plus both globals must plan four repairs: %+v", plans)
	}
	for i, bp := range plans[0].Blocks {
		// RepairBlock checks the rebuilt bytes against the stored block.
		local, err := fs.RepairBlock("a", lost[i], bp.Dest, bp.Sources)
		if err != nil {
			t.Fatalf("block %d: %v", bp.Index, err)
		}
		if local != (bp.Index < 10) || local != bp.Local {
			t.Fatalf("block %d: local = %v, planned %v", bp.Index, local, bp.Local)
		}
	}
	if left, err := fs.LostBlocks(nil); err != nil || len(left) != 0 {
		t.Fatalf("stripe not healed: %+v, %v", left, err)
	}
}

func TestRepairBlockReconstructsAndReassigns(t *testing.T) {
	fs := testFS(t)
	f, err := fs.Write("a", makeData(4*64))
	if err != nil {
		t.Fatal(err)
	}
	lost := erasure.BlockID{Stripe: 0, Index: 2}
	failHolders(fs.Cluster(), f, lost)
	plan, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
	if err != nil {
		t.Fatal(err)
	}
	bp := plan.Blocks[0]
	local, err := fs.RepairBlock("a", lost, bp.Dest, bp.Sources)
	if err != nil {
		t.Fatal(err)
	}
	if local {
		t.Fatal("RS repair reported as local")
	}
	if got := f.Placement.Holder(lost); got != bp.Dest {
		t.Fatalf("holder = %d, want %d", got, bp.Dest)
	}
	// The block is live again: a plain read succeeds and the stripe has
	// nothing left to repair.
	if _, err := fs.ReadBlock("a", lost); err != nil {
		t.Fatalf("repaired block unreadable: %v", err)
	}
	p2, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
	if err != nil {
		t.Fatal(err)
	}
	if p2.Lost != 0 {
		t.Fatalf("stripe still reports %d lost after repair", p2.Lost)
	}
	// Double repair is rejected: the holder is alive now.
	if _, err := fs.RepairBlock("a", lost, bp.Dest, bp.Sources); err == nil {
		t.Fatal("second repair of a live block must fail")
	} else if !strings.Contains(err.Error(), "not lost") {
		t.Fatalf("unexpected double-repair error: %v", err)
	}
}

// TestRepairBlockRejectsWrongRebuild corrupts a source of a repair, as a
// bad disk would: the rebuilt block then differs from the stored one, and
// RepairBlock must name the first differing byte and leave the block
// where it was. The corrupted source is the plan's one parity block,
// whose decode coefficient cannot be zero.
func TestRepairBlockRejectsWrongRebuild(t *testing.T) {
	fs := testFS(t)
	f, err := fs.Write("a", makeData(4*64))
	if err != nil {
		t.Fatal(err)
	}
	lost := erasure.BlockID{Stripe: 0, Index: 2}
	failHolders(fs.Cluster(), f, lost)
	dead := f.Placement.Holder(lost)
	plan, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
	if err != nil {
		t.Fatal(err)
	}
	bp := plan.Blocks[0]
	parity := bp.Sources[len(bp.Sources)-1].Index
	if parity < 4 {
		t.Fatalf("plan sources %v hold no parity block", bp.Sources)
	}
	f.blocks[0][parity][5] ^= 0x5A
	_, err = fs.RepairBlock("a", lost, bp.Dest, bp.Sources)
	if err == nil || !strings.Contains(err.Error(), "differs from ground truth at byte 5") {
		t.Fatalf("repair from a corrupt source: %v, want a mismatch at byte 5", err)
	}
	if got := f.Placement.Holder(lost); got != dead {
		t.Fatalf("failed repair moved the block to node %d", got)
	}
}

// repairFixture writes one stripe of seeded random bytes in 1 MiB blocks
// under RS(12,10), as the benchmark's dfs workload does, fails the holders
// of native blocks 0 and 1, and returns the stripe's repair plan.
func repairFixture(tb testing.TB) (*FS, *File, repair.StripePlan) {
	tb.Helper()
	const blockSize = 1 << 20
	c := topology.MustNew(topology.Config{Nodes: 16, Racks: 4, MapSlotsPerNode: 1})
	fs, err := New(c, erasure.MustNew(12, 10), blockSize, placement.RoundRobin{}, stats.NewRNG(1))
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, 10*blockSize)
	rand.New(rand.NewSource(1)).Read(data)
	f, err := fs.Write("a", data)
	if err != nil {
		tb.Fatal(err)
	}
	failHolders(c, f, erasure.BlockID{Stripe: 0, Index: 0}, erasure.BlockID{Stripe: 0, Index: 1})
	plan, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
	if err != nil {
		tb.Fatal(err)
	}
	if len(plan.Blocks) != 2 {
		tb.Fatalf("want two lost blocks, plan has %d", len(plan.Blocks))
	}
	return fs, f, plan
}

// TestRepairBlockReusesBuffer repairs two different blocks back to back.
// Each is checked against its stored copy through a window the check
// reuses, not a rebuilt block, so the second repair of a 1 MiB block must
// allocate less than half a block.
func TestRepairBlockReusesBuffer(t *testing.T) {
	fs, f, plan := repairFixture(t)
	repairOne := func(bp repair.BlockPlan) {
		t.Helper()
		if _, err := fs.RepairBlock(f.Name, erasure.BlockID{Stripe: 0, Index: bp.Index}, bp.Dest, bp.Sources); err != nil {
			t.Fatalf("block %d: %v", bp.Index, err)
		}
	}
	repairOne(plan.Blocks[0])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	repairOne(plan.Blocks[1])
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(fs.BlockSize()/2) {
		t.Fatalf("repairing a %d-byte block allocated %d bytes", fs.BlockSize(), got)
	}
}

func TestRepairBlockGuards(t *testing.T) {
	fs := testFS(t)
	f, err := fs.Write("a", makeData(4*64))
	if err != nil {
		t.Fatal(err)
	}
	lost := erasure.BlockID{Stripe: 0, Index: 0}
	failHolders(fs.Cluster(), f, lost)
	plan, err := fs.PlanStripeRepair(repair.Key{File: "a", Stripe: 0})
	if err != nil {
		t.Fatal(err)
	}
	bp := plan.Blocks[0]
	// Dead destination.
	if _, err := fs.RepairBlock("a", lost, f.Placement.Holder(lost), bp.Sources); err == nil {
		t.Fatal("dead destination accepted")
	}
	// Destination already holding a block of the stripe.
	other := f.Placement.Holder(erasure.BlockID{Stripe: 0, Index: 1})
	if _, err := fs.RepairBlock("a", lost, other, bp.Sources); err == nil {
		t.Fatal("stripe-colliding destination accepted")
	}
	// Unknown file.
	if _, err := fs.RepairBlock("nope", lost, bp.Dest, bp.Sources); err == nil {
		t.Fatal("unknown file accepted")
	}
}

func TestRepairBlockMetadataOnly(t *testing.T) {
	fs := testFS(t)
	f, err := fs.CreateMeta("m", 8)
	if err != nil {
		t.Fatal(err)
	}
	lost := erasure.BlockID{Stripe: 1, Index: 3}
	failHolders(fs.Cluster(), f, lost)
	plan, err := fs.PlanStripeRepair(repair.Key{File: "m", Stripe: 1})
	if err != nil {
		t.Fatal(err)
	}
	bp := plan.Blocks[0]
	if _, err := fs.RepairBlock("m", lost, bp.Dest, bp.Sources); err != nil {
		t.Fatal(err)
	}
	if got := f.Placement.Holder(lost); got != bp.Dest {
		t.Fatalf("metadata repair holder = %d, want %d", got, bp.Dest)
	}
}

func TestPickRepairDestinationPrefersRackConstraint(t *testing.T) {
	// Explicit placement: stripe of (3,2) on nodes 0,1,2 with nodes 0-2
	// in rack 0 impossible under the constraint; use 2 racks of 3.
	c := topology.MustNew(topology.Config{Nodes: 6, Racks: 3, MapSlotsPerNode: 1})
	fs, err := New(c, erasure.MustNew(3, 2), 64, nil, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Write("a", makeData(2*64))
	if err != nil {
		t.Fatal(err)
	}
	lost := erasure.BlockID{Stripe: 0, Index: 0}
	failHolders(c, f, lost)
	dest, err := PickRepairDestination(c, f.Placement, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Alive(dest) {
		t.Fatalf("dest %d not alive", dest)
	}
	for _, h := range f.Placement.StripeHolders(0) {
		if h == dest {
			t.Fatalf("dest %d already holds a block of the stripe", dest)
		}
	}
	// Rack constraint: the two survivors' racks constrain dest when the
	// limit (n-k=1 per rack) would be exceeded. With limit 1, dest's
	// rack must hold no live block of the stripe if any such node exists.
	perRack := make(map[topology.RackID]int)
	for _, h := range f.Placement.StripeHolders(0) {
		if c.Alive(h) {
			perRack[c.RackOf(h)]++
		}
	}
	if perRack[c.RackOf(dest)] >= 1 {
		// Only acceptable when every candidate rack was full.
		for _, node := range c.Nodes() {
			taken := false
			for _, h := range f.Placement.StripeHolders(0) {
				if h == node.ID {
					taken = true
				}
			}
			if !taken && !node.Failed() && perRack[node.Rack] < 1 {
				t.Fatalf("dest %d violates rack constraint while node %d satisfied it", dest, node.ID)
			}
		}
	}
}
