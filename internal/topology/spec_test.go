package topology

import (
	"math"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Nodes: 4},
		{Nodes: 0, Tiers: []Tier{{Name: "rack", Count: 2}}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 0}}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 5}}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 2}, {Name: "pod", Count: 3}}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 2, LinkBps: -1}}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 2}}, NodeBps: math.NaN()},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 2}}, LeafSizes: []int{4}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 2}}, LeafSizes: []int{3, 3}},
		{Nodes: 4, Tiers: []Tier{{Name: "rack", Count: 2}}, LeafSizes: []int{4, 0}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d must fail validation: %+v", i, s)
		}
	}
	good := TwoLevel(5, 2, 0, 100, 0)
	good.LeafSizes = []int{3, 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestClosOversubscriptionHoldsByConstruction(t *testing.T) {
	// 4 pods x 4 edges x 4 nodes, 1.0 NIC units, edge 4:1, pod 2:1.
	spec, err := Clos(ClosConfig{
		Nodes:   64,
		NodeBps: 1000,
		Tiers: []ClosTier{
			{Name: "edge", Count: 16, Oversub: 4},
			{Name: "pod", Count: 4, Oversub: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Edge uplink carries 1/4 of its 4 NICs' aggregate.
	if got, want := spec.Tiers[0].LinkBps, 4*1000.0/4; got != want {
		t.Fatalf("edge uplink = %v, want %v", got, want)
	}
	// Pod uplink carries 1/2 of its 4 edge uplinks' aggregate.
	if got, want := spec.Tiers[1].LinkBps, 4*1000.0/2; got != want {
		t.Fatalf("pod uplink = %v, want %v", got, want)
	}
	// Non-blocking core: aggregate of the 4 pod uplinks.
	if got, want := spec.CoreBps, 4*2000.0; got != want {
		t.Fatalf("core = %v, want %v", got, want)
	}
	// The ratio invariant, directly: uplink * oversub == child aggregate.
	if spec.Tiers[0].LinkBps*4 != 4*1000.0 || spec.Tiers[1].LinkBps*2 != 4*spec.Tiers[0].LinkBps {
		t.Fatal("oversubscription ratios do not hold")
	}
}

func TestClosRejectsUnevenAndUnderivable(t *testing.T) {
	if _, err := Clos(ClosConfig{Nodes: 10, NodeBps: 1, Tiers: []ClosTier{{Name: "edge", Count: 4}}}); err == nil {
		t.Fatal("uneven node/edge split must fail")
	}
	if _, err := Clos(ClosConfig{Nodes: 8, Tiers: []ClosTier{{Name: "edge", Count: 4}}}); err == nil {
		t.Fatal("oversubscription without NodeBps must fail")
	}
	// Explicit LinkBps rescues the underivable case.
	if _, err := Clos(ClosConfig{Nodes: 8, Tiers: []ClosTier{{Name: "edge", Count: 4, LinkBps: 500}}, CoreBps: math.Inf(1)}); err != nil {
		t.Fatalf("explicit LinkBps must validate: %v", err)
	}
}

func TestFatTreeShape(t *testing.T) {
	spec, err := FatTree(FatTreeConfig{
		Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3,
		NodeBps: 100, EdgeOversub: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 12 || len(spec.Tiers) != 2 {
		t.Fatalf("unexpected shape: %+v", spec)
	}
	if spec.Tiers[0].Count != 4 || spec.Tiers[0].Name != "edge" {
		t.Fatalf("edge tier wrong: %+v", spec.Tiers[0])
	}
	if spec.Tiers[1].Count != 2 || spec.Tiers[1].Name != "pod" {
		t.Fatalf("pod tier wrong: %+v", spec.Tiers[1])
	}
	if spec.Tiers[0].LinkBps != 100 { // 3*100/3
		t.Fatalf("edge uplink = %v, want 100", spec.Tiers[0].LinkBps)
	}
	if _, err := FatTree(FatTreeConfig{Pods: 0, EdgesPerPod: 1, NodesPerEdge: 1, NodeBps: 1}); err == nil {
		t.Fatal("zero pods must fail")
	}
	if _, err := FatTree(FatTreeConfig{Pods: 1, EdgesPerPod: 1, NodesPerEdge: 1}); err == nil {
		t.Fatal("missing NodeBps must fail")
	}
}

// fatTreeCluster is the shared 12-node 2x2x3 multi-tier test cluster.
func fatTreeCluster(t *testing.T) *Cluster {
	t.Helper()
	spec, err := FatTree(FatTreeConfig{Pods: 2, EdgesPerPod: 2, NodesPerEdge: 3, NodeBps: 100})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Spec: &spec, MapSlotsPerNode: 1, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMultiTierClusterCoords(t *testing.T) {
	c := fatTreeCluster(t)
	if c.NumNodes() != 12 || c.NumRacks() != 4 || c.NumTiers() != 2 {
		t.Fatalf("shape: %d nodes, %d racks, %d tiers", c.NumNodes(), c.NumRacks(), c.NumTiers())
	}
	for id := 0; id < 12; id++ {
		wantEdge := id / 3
		wantPod := id / 6
		if got := c.NodeCoords(NodeID(id))[0]; got != wantEdge {
			t.Fatalf("node %d edge = %d, want %d", id, got, wantEdge)
		}
		if got := c.NodeCoords(NodeID(id))[1]; got != wantPod {
			t.Fatalf("node %d pod = %d, want %d", id, got, wantPod)
		}
		if got := c.RackOf(NodeID(id)); int(got) != wantEdge {
			t.Fatalf("node %d rack = %d, want edge %d", id, got, wantEdge)
		}
	}
	// Hierarchy invariant: same leaf implies same coordinates everywhere.
	for a := 0; a < 12; a++ {
		for b := 0; b < 12; b++ {
			if c.NodeCoords(NodeID(a))[0] == c.NodeCoords(NodeID(b))[0] &&
				c.NodeCoords(NodeID(a))[1] != c.NodeCoords(NodeID(b))[1] {
				t.Fatalf("nodes %d,%d share an edge but not a pod", a, b)
			}
		}
	}
}

func TestHopDistanceMetric(t *testing.T) {
	c := fatTreeCluster(t)
	// Same node 0; same edge 2; same pod (cross edge) 4; cross pod 7
	// (core fabric adds one).
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 2},  // edge 0, edge 0
		{0, 3, 4},  // edge 0 -> edge 1, pod 0
		{0, 6, 7},  // pod 0 -> pod 1
		{5, 11, 7}, // pod 0 -> pod 1
	}
	for _, tc := range cases {
		if got := c.HopDistance(NodeID(tc.a), NodeID(tc.b)); got != tc.want {
			t.Errorf("HopDistance(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	// Symmetry and identity, exhaustively.
	for a := 0; a < 12; a++ {
		for b := 0; b < 12; b++ {
			d, r := c.HopDistance(NodeID(a), NodeID(b)), c.HopDistance(NodeID(b), NodeID(a))
			if d != r {
				t.Fatalf("asymmetric distance %d,%d: %d vs %d", a, b, d, r)
			}
			if (d == 0) != (a == b) {
				t.Fatalf("distance %d between %d and %d", d, a, b)
			}
		}
	}
}

func TestLocalityIsTwoLevelProjectionOfHopDistance(t *testing.T) {
	for _, c := range []*Cluster{
		fatTreeCluster(t),
		MustNew(Config{Nodes: 8, Racks: 3, MapSlotsPerNode: 1}),
	} {
		n := c.NumNodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := Remote
				switch c.HopDistance(NodeID(a), NodeID(b)) {
				case 0:
					want = NodeLocal
				case 2:
					want = RackLocal
				}
				if got := c.LocalityOf(NodeID(a), NodeID(b)); got != want {
					t.Fatalf("LocalityOf(%d,%d) = %v, want %v (dist %d)",
						a, b, got, want, c.HopDistance(NodeID(a), NodeID(b)))
				}
			}
		}
	}
}

func TestTwoLevelSpecMatchesLegacyConfig(t *testing.T) {
	legacy := MustNew(Config{Nodes: 10, Racks: 3, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1})
	spec := TwoLevel(10, 3, 0, 0, 0)
	fromSpec, err := New(Config{Spec: &spec, MapSlotsPerNode: 2, ReduceSlotsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fromSpec.NumRacks() != legacy.NumRacks() {
		t.Fatalf("rack counts differ: %d vs %d", fromSpec.NumRacks(), legacy.NumRacks())
	}
	for id := 0; id < 10; id++ {
		if legacy.RackOf(NodeID(id)) != fromSpec.RackOf(NodeID(id)) {
			t.Fatalf("node %d rack differs: %d vs %d", id, legacy.RackOf(NodeID(id)), fromSpec.RackOf(NodeID(id)))
		}
		if legacy.HopDistance(0, NodeID(id)) != fromSpec.HopDistance(0, NodeID(id)) {
			t.Fatalf("node %d distance differs", id)
		}
	}
	// Legacy two-level distances: 0 same node, 2 same rack, 5 cross-rack
	// (NICs + rack up/down + core).
	if d := legacy.HopDistance(0, 1); d != 2 {
		t.Fatalf("same-rack distance = %d, want 2", d)
	}
	if d := legacy.HopDistance(0, 9); d != 5 {
		t.Fatalf("cross-rack distance = %d, want 5", d)
	}
}

func TestSpecExcludesLegacyFields(t *testing.T) {
	spec := TwoLevel(4, 2, 0, 0, 0)
	if _, err := New(Config{Nodes: 4, Spec: &spec, MapSlotsPerNode: 1}); err == nil {
		t.Fatal("Spec alongside Nodes must fail")
	}
}
