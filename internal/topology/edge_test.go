package topology

import (
	"math"
	"testing"
)

// TestSharedTierOfOneNode: a node shares no switching tier with itself.
func TestSharedTierOfOneNode(t *testing.T) {
	c := MustNew(Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	if got := c.SharedTier(1, 1); got != -1 {
		t.Fatalf("SharedTier(1, 1) = %d, want -1", got)
	}
}

// TestFatTreeRejectsNaNBandwidth: a NaN NIC capacity passes the
// positivity check but not the spec's: the tiers derived from it are NaN.
func TestFatTreeRejectsNaNBandwidth(t *testing.T) {
	if _, err := FatTree(FatTreeConfig{Pods: 2, EdgesPerPod: 2, NodesPerEdge: 2, NodeBps: math.NaN()}); err == nil {
		t.Fatal("a fat tree of NaN links built")
	}
}
