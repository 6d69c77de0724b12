package minimr

import (
	"reflect"
	"testing"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/workload"
)

// TestRepairHealsDFSMidRun is the real-bytes heal-to-full-redundancy
// scenario: a node dies before the run, the background healer rebuilds
// every lost block (data and parity) from real surviving shards while
// the job runs, and afterwards the file has no lost blocks at all.
func TestRepairHealsDFSMidRun(t *testing.T) {
	// A (6,4) code on 12 nodes: unlike the (12,10) testbed, every stripe
	// leaves nodes free to host rebuilt blocks.
	cluster := topology.MustNew(topology.Config{
		Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	fs, err := dfs.New(cluster, erasure.MustNew(6, 4), TestbedBlockSize,
		placement.RoundRobin{}, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(_testBlocks, TestbedBlockSize, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	fs.Cluster().FailNode(3)
	file, err := fs.File("input.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantRepaired := len(file.Placement.NodeBlocks(3))
	if wantRepaired == 0 {
		t.Fatal("failed node held no blocks; scenario is vacuous")
	}

	opts := testOpts(sched.KindEDF)
	opts.Repair = repair.Config{Enabled: true, RateFraction: 0.5}
	rep, err := Run(fs, opts, []Job{WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}

	// Foreground correctness is untouched by the healer.
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatal("WordCount output diverges with background repair on")
	}

	st := rep.Repair
	if st == nil {
		t.Fatal("repair enabled with a failed node but Report.Repair is nil")
	}
	if st.BlocksRepaired != wantRepaired {
		t.Fatalf("BlocksRepaired = %d, want %d (all blocks of node 3)", st.BlocksRepaired, wantRepaired)
	}
	if st.FullRedundancyAt < 0 {
		t.Fatalf("never healed to full redundancy: %+v", st)
	}
	if st.Unrepairable != 0 {
		t.Fatalf("single failure within n-k produced unrepairable stripes: %+v", st)
	}

	// The DFS is fully redundant again: every stripe holder alive, and
	// every block readable without degradation.
	for s := 0; s < file.NumStripes(); s++ {
		for i, h := range file.Placement.StripeHolders(s) {
			if !fs.Cluster().Alive(h) {
				t.Fatalf("stripe %d block %d still on dead node %d", s, i, h)
			}
		}
	}
	for _, b := range file.NativeBlocks() {
		if _, err := fs.ReadBlock("input.txt", b); err != nil {
			t.Fatalf("block %v unreadable after heal: %v", b, err)
		}
	}
}

// TestRepairWithNowhereToRebuild: on the (12,10) testbed every stripe
// spans all 12 nodes, so no node can host a block rebuilt after a
// failure. The healer reports each stripe the failure touched once as
// unrepairable and leaves it degraded; the job still computes the
// ground truth.
func TestRepairWithNowhereToRebuild(t *testing.T) {
	fs, corpus := testbedFS(t, 2)
	fs.Cluster().FailNode(3)
	file, err := fs.File("input.txt")
	if err != nil {
		t.Fatal(err)
	}
	lost := len(file.Placement.NodeBlocks(3))
	opts := testOpts(sched.KindEDF)
	opts.Repair = repair.Config{Enabled: true}
	rep, err := Run(fs, opts, []Job{WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Outputs[0], wantCounts(workload.CountWords(corpus))) {
		t.Fatal("WordCount output diverges with stripes left degraded")
	}
	if st := rep.Repair; st == nil || st.Unrepairable != lost || st.StripesQueued != 0 || st.BlocksRepaired != 0 || st.FullRedundancyAt != -1 {
		t.Fatalf("Report.Repair = %+v, want %d unrepairable stripes and nothing queued or healed", st, lost)
	}
	if len(file.Placement.NodeBlocks(3)) != lost {
		t.Fatal("the healer moved blocks it had nowhere to rebuild")
	}
}

// TestRepairDisabledReportsNothing: the zero config leaves the DFS
// degraded and the report without repair stats.
func TestRepairDisabledReportsNothing(t *testing.T) {
	fs, _ := testbedFS(t, 6)
	fs.Cluster().FailNode(3)
	rep, err := Run(fs, testOpts(sched.KindLF), []Job{WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Repair != nil {
		t.Fatalf("repair disabled but Report.Repair = %+v", rep.Repair)
	}
	file, err := fs.File("input.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Placement.NodeBlocks(3)) == 0 {
		t.Fatal("failed node lost its blocks without a healer")
	}
}

// TestRepairLRCUsesLocalGroups: with a true LRC code the healer repairs
// single losses from the surviving local group — strictly fewer source
// reads than full reconstructions.
func TestRepairLRCUsesLocalGroups(t *testing.T) {
	cluster := topology.MustNew(topology.Config{
		Nodes: 12, Racks: 4, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	code := mustLRC(t, 4, 2, 1)
	fs, err := dfs.New(cluster, code, TestbedBlockSize, placement.RoundRobin{}, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(40, TestbedBlockSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	cluster.FailNode(2)

	opts := testOpts(sched.KindEDF)
	opts.Repair = repair.Config{Enabled: true, RateFraction: 0.5}
	rep, err := Run(fs, opts, []Job{LineCountJob("input.txt", 4)})
	if err != nil {
		t.Fatal(err)
	}
	want := wantCounts(workload.CountLines(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatal("LineCount output diverges with LRC background repair on")
	}
	st := rep.Repair
	if st == nil || st.FullRedundancyAt < 0 {
		t.Fatalf("LRC heal incomplete: %+v", st)
	}
	if st.LocalRepairs == 0 {
		t.Fatalf("no local-group repairs under LRC: %+v", st)
	}
	// Local repairs read fewer than k sources, so the total read volume
	// stays strictly below k reads per rebuilt block.
	if maxBytes := float64(st.BlocksRepaired) * float64(fs.Code().K()) * float64(fs.BlockSize()); st.RepairBytes >= maxBytes {
		t.Fatalf("RepairBytes = %v, want < %v (local repairs must be cheaper)", st.RepairBytes, maxBytes)
	}
}

// TestRepairThrottleOnMultiTierCluster: on a fat-tree cluster the only
// capacities are the fabric spec's, and a fractional throttle is taken
// against its NodeBps — a quarter of a NIC heals strictly later than a
// whole one.
func TestRepairThrottleOnMultiTierCluster(t *testing.T) {
	healedAt := func(fraction float64) float64 {
		spec, err := topology.FatTree(topology.FatTreeConfig{
			Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3,
			NodeBps: TestbedRackBps, EdgeOversub: 4, PodOversub: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		cluster := topology.MustNew(topology.Config{Spec: &spec, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
		fs, err := dfs.New(cluster, erasure.MustNew(6, 4), TestbedBlockSize,
			placement.RoundRobin{}, stats.NewRNG(5))
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := workload.GenerateBlockAlignedCorpus(_testBlocks, TestbedBlockSize, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Write("input.txt", corpus); err != nil {
			t.Fatal(err)
		}
		cluster.FailNode(3)
		opts := Options{Scheduler: sched.KindEDF, Seed: 1}
		opts.Repair = repair.Config{Enabled: true, RateFraction: fraction}
		rep, err := Run(fs, opts, []Job{WordCountJob("input.txt", 8)})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Repair == nil || rep.Repair.FullRedundancyAt < 0 {
			t.Fatalf("fraction %v: heal incomplete: %+v", fraction, rep.Repair)
		}
		return rep.Repair.FullRedundancyAt
	}
	if slow, fast := healedAt(0.25), healedAt(1.0); slow <= fast {
		t.Fatalf("full redundancy at %.3f s at a quarter NIC vs %.3f s at a whole one", slow, fast)
	}
}
