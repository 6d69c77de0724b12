package sched

import (
	"testing"

	"degradedfirst/internal/topology"
)

// fatTree12 builds the 12-node 2x2x3 fat-tree cluster (nodes 0-2 edge
// 0, 3-5 edge 1, 6-8 edge 2, 9-11 edge 3; pods {0,1} and {2,3}).
func fatTree12(t *testing.T) *topology.Cluster {
	t.Helper()
	spec, err := topology.FatTree(topology.FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3, NodeBps: 100e6,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := topology.New(topology.Config{Spec: &spec, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPopRemoteDistanceAware checks that on a multi-tier fabric
// popRemote prefers the nearest remote holder — same pod before a
// core crossing — while task order breaks distance ties.
func TestPopRemoteDistanceAware(t *testing.T) {
	c := fatTree12(t)
	// Requesting node 0 (edge 0, pod 0). Task 0's holder is in the other
	// pod (distance 7), task 1's in the neighboring edge of pod 0
	// (distance 4).
	j := NewJob(0, []TaskSpec{
		{Holder: 9},
		{Holder: 3},
	})
	if got := j.popRemote(c, 0); got == nil || got.Index != 1 {
		t.Fatalf("popRemote picked %+v, want the same-pod task 1", got)
	}
	if got := j.popRemote(c, 0); got == nil || got.Index != 0 {
		t.Fatalf("popRemote picked %+v, want the remaining cross-pod task 0", got)
	}
	if j.popRemote(c, 0) != nil {
		t.Fatal("no remote tasks should remain")
	}

	// Equal distances fall back to task order: holders 4 and 3 are both
	// one edge over from node 0.
	j = NewJob(1, []TaskSpec{
		{Holder: 4},
		{Holder: 3},
	})
	if got := j.popRemote(c, 0); got == nil || got.Index != 0 {
		t.Fatalf("tie-break picked %+v, want task 0", got)
	}
}

// TestPopRemoteTwoLevelUnchanged pins the two-level degenerate case:
// a single remote distance, so the historical first-pending scan order
// must be preserved exactly.
func TestPopRemoteTwoLevelUnchanged(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 9, Racks: 3, MapSlotsPerNode: 1})
	// From node 0 (rack 0): tasks 0 and 2 are remote, task 1 rack-local.
	j := NewJob(0, []TaskSpec{
		{Holder: 8},
		{Holder: 1},
		{Holder: 3},
	})
	if got := j.popRemote(c, 0); got == nil || got.Index != 0 {
		t.Fatalf("two-level popRemote picked %+v, want first pending remote (task 0)", got)
	}
	if got := j.popRemote(c, 0); got == nil || got.Index != 2 {
		t.Fatalf("two-level popRemote picked %+v, want task 2", got)
	}
}
