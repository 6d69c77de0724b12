package cluster

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"degradedfirst/internal/dfs"
	"degradedfirst/internal/erasure"
	"degradedfirst/internal/minimr"
	"degradedfirst/internal/placement"
	"degradedfirst/internal/repair"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/trace"
	"degradedfirst/internal/workload"
)

// repairFS builds a DFS whose code leaves room for rebuilt blocks: a
// (6,4) stripe on 12 nodes, unlike the (12,10) testbed where every
// stripe spans the whole cluster and no node can host a repair.
func repairFS(t *testing.T, seed int64) (*dfs.FS, []byte) {
	t.Helper()
	clu := topology.MustNew(topology.Config{
		Nodes: 12, Racks: 3, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1,
	})
	fs, err := dfs.New(clu, erasure.MustNew(6, 4), minimr.TestbedBlockSize,
		placement.RoundRobin{}, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := workload.GenerateBlockAlignedCorpus(testBlocks, minimr.TestbedBlockSize, seed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write("input.txt", corpus); err != nil {
		t.Fatal(err)
	}
	return fs, corpus
}

// TestLoopbackRepairHealsDFS is the distributed heal-to-full-redundancy
// scenario: a node fails before the run, the background healer drives
// real repair-block RPCs — each destination worker fetches the source
// blocks from its peers and runs the real Reed-Solomon decode — and
// afterwards the placement is fully redundant, every rebuilt block
// physically lives on its new holder's worker, and the virtual schedule
// is byte-identical to the in-process engine with the same config.
func TestLoopbackRepairHealsDFS(t *testing.T) {
	fs, corpus := repairFS(t, 6)
	fs.Cluster().FailNode(3)
	file, err := fs.File("input.txt")
	if err != nil {
		t.Fatal(err)
	}
	wantRepaired := len(file.Placement.NodeBlocks(3))
	if wantRepaired == 0 {
		t.Fatal("failed node held no blocks; scenario is vacuous")
	}

	mem := &trace.Memory{}
	opts := engineOpts(mem)
	opts.Repair = repair.Config{Enabled: true, RateFraction: 0.5}
	l, err := StartLocal(fs, MasterOptions{
		HeartbeatEvery: 100 * time.Millisecond,
		HeartbeatMiss:  20,
		Engine:         opts,
	}, WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rep, err := l.Run(context.Background(), []JobSpec{
		{Kind: "wordcount", Input: "input.txt", NumReducers: 8},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Foreground correctness is untouched by the healer.
	want := wantCounts(workload.CountWords(corpus))
	if !reflect.DeepEqual(rep.Outputs[0], want) {
		t.Fatal("cluster output diverges from ground truth with repair on")
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

	// The master's placement is fully redundant again.
	for s := 0; s < file.NumStripes(); s++ {
		for i, h := range file.Placement.StripeHolders(s) {
			if !fs.Cluster().Alive(h) {
				t.Fatalf("stripe %d block %d still on dead node %d", s, i, h)
			}
		}
	}

	// Every repair really ran on a worker: one wire-repair event per
	// rebuilt block, and the rebuilt bytes are in the destination
	// worker's store — byte-identical to ground truth for native blocks.
	wire := 0
	for _, e := range mem.Events() {
		if e.Type != trace.EvWireRepair {
			continue
		}
		wire++
		w := l.workers[topology.NodeID(e.Node)]
		if w == nil {
			t.Fatalf("wire-repair on node %d, which has no worker", e.Node)
		}
		data, err := w.readLocal(e.Name, e.Task, e.N)
		if err != nil {
			t.Fatalf("rebuilt block missing from worker %d's store: %v", e.Node, err)
		}
		if e.N < fs.Code().K() {
			truth, err := fs.ReadBlock(e.Name, erasure.BlockID{Stripe: e.Task, Index: e.N})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, truth) {
				t.Fatalf("worker %d rebuilt stripe %d block %d differs from ground truth", e.Node, e.Task, e.N)
			}
		} else if len(data) != fs.BlockSize() {
			t.Fatalf("worker %d rebuilt parity block has %d bytes, want %d", e.Node, len(data), fs.BlockSize())
		}
	}
	if wire != wantRepaired {
		t.Fatalf("wire-repair events = %d, want %d", wire, wantRepaired)
	}

	// The in-process engine on identical DFS contents produces the same
	// virtual schedule and the same repair timeline.
	refFS, _ := repairFS(t, 6)
	refFS.Cluster().FailNode(3)
	refOpts := engineOpts(nil)
	refOpts.Repair = repair.Config{Enabled: true, RateFraction: 0.5}
	ref, err := minimr.Run(refFS, refOpts, []minimr.Job{minimr.WordCountJob("input.txt", 8)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Outputs[0], ref.Outputs[0]) {
		t.Fatal("cluster output diverges from the in-process engine")
	}
	if rep.Makespan != ref.Makespan || rep.BytesMoved != ref.BytesMoved {
		t.Fatalf("virtual schedules diverge: cluster (%v, %v), in-process (%v, %v)",
			rep.Makespan, rep.BytesMoved, ref.Makespan, ref.BytesMoved)
	}
	if !reflect.DeepEqual(st, ref.Repair) {
		t.Fatalf("repair timelines diverge:\ncluster    %+v\nin-process %+v", st, ref.Repair)
	}
}
