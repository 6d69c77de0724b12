package topology

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"degradedfirst/internal/stats"
)

func defaultCfg() Config {
	return Config{Nodes: 40, Racks: 4, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1}
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Nodes: 0, Racks: 1, MapSlotsPerNode: 1},
		{Nodes: 4, Racks: 0, MapSlotsPerNode: 1},
		{Nodes: 2, Racks: 3, MapSlotsPerNode: 1},
		{Nodes: 4, Racks: 2, MapSlotsPerNode: 0},
		{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, ReduceSlotsPerNode: -1},
		{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, RackSizes: []int{4}},
		{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, RackSizes: []int{3, 3}},
		{Nodes: 4, Racks: 2, MapSlotsPerNode: 1, RackSizes: []int{4, 0}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad config did not panic")
		}
	}()
	MustNew(Config{})
}

func TestEvenRackAssignment(t *testing.T) {
	c := MustNew(defaultCfg())
	if c.NumNodes() != 40 || c.NumRacks() != 4 {
		t.Fatalf("shape wrong: %d nodes %d racks", c.NumNodes(), c.NumRacks())
	}
	for r := 0; r < 4; r++ {
		if got := len(c.RackNodes(RackID(r))); got != 10 {
			t.Fatalf("rack %d has %d nodes, want 10", r, got)
		}
	}
	// Contiguous: node 0..9 rack 0, 10..19 rack 1, ...
	if c.RackOf(0) != 0 || c.RackOf(9) != 0 || c.RackOf(10) != 1 || c.RackOf(39) != 3 {
		t.Fatal("contiguous rack assignment violated")
	}
}

func TestUnevenRackAssignment(t *testing.T) {
	c := MustNew(Config{Nodes: 5, Racks: 2, MapSlotsPerNode: 2, RackSizes: []int{3, 2}})
	if len(c.RackNodes(0)) != 3 || len(c.RackNodes(1)) != 2 {
		t.Fatal("explicit rack sizes not honored")
	}
	// Round-robin fallback gives first racks the extra node.
	c2 := MustNew(Config{Nodes: 5, Racks: 2, MapSlotsPerNode: 2})
	if len(c2.RackNodes(0)) != 3 || len(c2.RackNodes(1)) != 2 {
		t.Fatal("uneven spread must differ by at most one, larger first")
	}
}

func TestFailureLifecycle(t *testing.T) {
	c := MustNew(defaultCfg())
	if len(c.AliveNodes()) != 40 || len(c.FailedNodes()) != 0 {
		t.Fatal("fresh cluster must be fully alive")
	}
	c.FailNode(7)
	c.FailNode(7) // idempotent
	if c.Alive(7) {
		t.Fatal("node 7 should be failed")
	}
	if len(c.AliveNodes()) != 39 || len(c.FailedNodes()) != 1 {
		t.Fatal("alive/failed counts wrong")
	}
	for _, id := range c.RackNodes(2) {
		c.FailNode(id)
	}
	if len(c.AliveNodes()) != 29 || len(c.FailedNodes()) != 11 || !slices.Contains(c.FailedNodes(), 7) {
		t.Fatalf("after failing rack 2 too, failed nodes %v", c.FailedNodes())
	}
}

func TestLocalityOf(t *testing.T) {
	c := MustNew(Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	if got := c.LocalityOf(0, 0); got != NodeLocal {
		t.Fatalf("self = %v", got)
	}
	if got := c.LocalityOf(0, 1); got != RackLocal {
		t.Fatalf("same rack = %v", got)
	}
	if got := c.LocalityOf(0, 2); got != Remote {
		t.Fatalf("cross rack = %v", got)
	}
}

func TestSlotTotalsExcludeFailed(t *testing.T) {
	c := MustNew(defaultCfg())
	if c.TotalMapSlots() != 160 || c.TotalReduceSlots() != 40 {
		t.Fatalf("slot totals wrong: %d/%d", c.TotalMapSlots(), c.TotalReduceSlots())
	}
	c.FailNode(0)
	if c.TotalMapSlots() != 156 || c.TotalReduceSlots() != 39 {
		t.Fatalf("slot totals after failure wrong: %d/%d", c.TotalMapSlots(), c.TotalReduceSlots())
	}
}

func TestSetSpeedFactor(t *testing.T) {
	c := MustNew(defaultCfg())
	if err := c.SetSpeedFactor(3, 2.0); err != nil {
		t.Fatal(err)
	}
	if c.Node(3).SpeedFactor != 2.0 {
		t.Fatal("speed factor not applied")
	}
	for _, f := range []float64{0, math.NaN(), math.Inf(1)} {
		if err := c.SetSpeedFactor(3, f); err == nil {
			t.Fatalf("speed factor %v must error", f)
		}
	}
	if err := c.SetSpeedFactor(NodeID(c.NumNodes()), 2); err == nil {
		t.Fatal("a speed factor on a node past the cluster must error")
	}
}

// TestPickFailurePatterns pins each pattern's picks, and that picking
// fails nothing.
func TestPickFailurePatterns(t *testing.T) {
	rng := stats.NewRNG(1)
	c := MustNew(defaultCfg())
	pick := func(p FailurePattern) []NodeID {
		t.Helper()
		failed, err := PickFailure(c, p, rng)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if f := c.FailedNodes(); len(f) != 0 {
			t.Fatalf("%v: picking failed nodes %v", p, f)
		}
		return failed
	}
	if failed := pick(NoFailure); failed != nil {
		t.Fatalf("NoFailure picked %v", failed)
	}
	if failed := pick(SingleNodeFailure); len(failed) != 1 {
		t.Fatalf("single: %v", failed)
	}
	if failed := pick(DoubleNodeFailure); len(failed) != 2 || failed[0] == failed[1] {
		t.Fatalf("double: %v", failed)
	}
	failed := pick(RackFailure)
	if len(failed) != 10 {
		t.Fatalf("rack: %v", failed)
	}
	r := c.RackOf(failed[0])
	for _, id := range failed {
		if c.RackOf(id) != r {
			t.Fatal("rack failure crossed racks")
		}
	}
}

func TestPickFailureErrors(t *testing.T) {
	rng := stats.NewRNG(2)
	tiny := MustNew(Config{Nodes: 1, Racks: 1, MapSlotsPerNode: 1})
	if _, err := PickFailure(tiny, SingleNodeFailure, rng); err == nil {
		t.Fatal("failing the only node must error")
	}
	if _, err := PickFailure(tiny, RackFailure, rng); err == nil {
		t.Fatal("rack failure with one rack must error")
	}
	if _, err := PickFailure(tiny, FailurePattern(42), rng); err == nil {
		t.Fatal("unknown pattern must error")
	}
	if f := tiny.FailedNodes(); len(f) != 0 {
		t.Fatalf("a failed pick failed nodes %v", f)
	}
}

func TestFailurePatternStrings(t *testing.T) {
	for _, p := range []FailurePattern{NoFailure, SingleNodeFailure, DoubleNodeFailure, RackFailure, FailurePattern(9)} {
		if p.String() == "" {
			t.Fatal("String must render")
		}
	}
}

func TestRackAssignmentProperty(t *testing.T) {
	// Property: every node is in exactly one rack and rack sizes differ by
	// at most one under round-robin assignment.
	f := func(nSeed, rSeed uint8) bool {
		n := 1 + int(nSeed)%60
		r := 1 + int(rSeed)%8
		if r > n {
			r = n
		}
		c, err := New(Config{Nodes: n, Racks: r, MapSlotsPerNode: 1})
		if err != nil {
			return false
		}
		count := 0
		minSz, maxSz := n+1, -1
		for rack := 0; rack < r; rack++ {
			sz := len(c.RackNodes(RackID(rack)))
			count += sz
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		return count == n && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
