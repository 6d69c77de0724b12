package placement

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
	"testing/quick"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

func cluster40() *topology.Cluster {
	return topology.MustNew(topology.Config{Nodes: 40, Racks: 4, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
}

// validateRackConstraint checks Validate plus the paper's Section III
// condition: at most n-k blocks of any stripe share a rack, so any
// single-rack failure is tolerable. The paper's own testbed placement
// (round-robin, Section VI) does not guarantee this; RackConstrainedRandom
// does.
func validateRackConstraint(p *Placement, c *topology.Cluster) error {
	if err := p.Validate(c); err != nil {
		return err
	}
	for s, holders := range p.stripes {
		perRack := make(map[topology.RackID]int)
		for _, id := range holders {
			perRack[c.RackOf(id)]++
		}
		for r, cnt := range perRack {
			if cnt > p.n-p.k {
				return fmt.Errorf("placement: stripe %d has %d blocks in rack %d, max %d", s, cnt, r, p.n-p.k)
			}
		}
	}
	return nil
}

// lostNativeBlocks returns the native blocks whose holder is failed — the
// inputs of the job's degraded tasks.
func lostNativeBlocks(p *Placement, c *topology.Cluster) []erasure.BlockID {
	var out []erasure.BlockID
	for s := range p.stripes {
		for i := 0; i < p.k; i++ {
			if !c.Alive(p.stripes[s][i]) {
				out = append(out, erasure.BlockID{Stripe: s, Index: i})
			}
		}
	}
	return out
}

func allPolicies() []Policy {
	return []Policy{RackConstrainedRandom{}, RoundRobin{}}
}

func TestPoliciesSatisfyInvariants(t *testing.T) {
	for _, pol := range allPolicies() {
		t.Run(pol.Name(), func(t *testing.T) {
			c := cluster40()
			rng := stats.NewRNG(1)
			p, err := pol.Place(c, 96, 20, 15, rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(c); err != nil {
				t.Fatal(err)
			}
			if _, strict := pol.(RoundRobin); !strict {
				if err := validateRackConstraint(p, c); err != nil {
					t.Fatal(err)
				}
			}
			if p.N() != 20 || p.K() != 15 || p.NumStripes() != 96 {
				t.Fatalf("shape wrong: n=%d k=%d stripes=%d", p.N(), p.K(), p.NumStripes())
			}
			if p.NumNativeBlocks() != 96*15 {
				t.Fatalf("native blocks = %d", p.NumNativeBlocks())
			}
			// All blocks accounted for on nodes.
			total := 0
			for _, node := range c.Nodes() {
				total += len(p.NodeBlocks(node.ID))
			}
			if total != 96*20 {
				t.Fatalf("byNode total = %d, want %d", total, 96*20)
			}
		})
	}
}

func TestPlacementLoadBalance(t *testing.T) {
	// Both policies should spread blocks roughly evenly: with
	// 96 stripes * 20 blocks over 40 nodes, mean is 48 per node.
	for _, pol := range allPolicies() {
		c := cluster40()
		p, err := pol.Place(c, 96, 20, 15, stats.NewRNG(2))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		minB, maxB := 1<<30, 0
		for _, node := range c.Nodes() {
			n := len(p.NodeBlocks(node.ID))
			if n < minB {
				minB = n
			}
			if n > maxB {
				maxB = n
			}
		}
		if maxB-minB > 8 {
			t.Errorf("%s: imbalanced placement, min %d max %d", pol.Name(), minB, maxB)
		}
	}
}

func TestHolderAndStripeHolders(t *testing.T) {
	c := cluster40()
	p, err := RoundRobin{}.Place(c, 2, 4, 2, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	holders := p.StripeHolders(0)
	if len(holders) != 4 {
		t.Fatalf("stripe holders = %v", holders)
	}
	for i, h := range holders {
		if p.Holder(erasure.BlockID{Stripe: 0, Index: i}) != h {
			t.Fatal("Holder disagrees with StripeHolders")
		}
	}
	// Round-robin determinism with rack interleaving (racks are nodes
	// 0-9, 10-19, 20-29, 30-39): order is 0,10,20,30,1,11,...
	if holders[0] != 0 || holders[1] != 10 || holders[2] != 20 || holders[3] != 30 {
		t.Fatalf("round robin stripe 0 holders = %v", holders)
	}
	if h1 := p.StripeHolders(1); h1[0] != 1 || h1[1] != 11 {
		t.Fatalf("round robin stripe 1 holders = %v", h1)
	}
}

func TestNativeBlocksOrder(t *testing.T) {
	c := cluster40()
	p, _ := RoundRobin{}.Place(c, 3, 4, 2, stats.NewRNG(4))
	nb := p.NativeBlocks()
	if len(nb) != 6 {
		t.Fatalf("native blocks = %v", nb)
	}
	if nb[0] != (erasure.BlockID{Stripe: 0, Index: 0}) || nb[5] != (erasure.BlockID{Stripe: 2, Index: 1}) {
		t.Fatalf("native block order wrong: %v", nb)
	}
}

func TestLostNativeBlocksAndSurvivors(t *testing.T) {
	c := cluster40()
	p, err := RackConstrainedRandom{}.Place(c, 24, 8, 6, stats.NewRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	if got := lostNativeBlocks(p, c); len(got) != 0 {
		t.Fatalf("no failure but %d lost blocks", len(got))
	}
	c.FailNode(0)
	lost := lostNativeBlocks(p, c)
	want := 0
	for _, b := range p.NodeBlocks(0) {
		if b.Index < 6 {
			want++
		}
	}
	if len(lost) != want {
		t.Fatalf("lost native = %d, want %d", len(lost), want)
	}
	for _, b := range lost {
		if p.Holder(b) != 0 {
			t.Fatal("lost block not held by failed node")
		}
	}
	idx, holders := p.SurvivorsOf(c, lost[0].Stripe)
	if len(idx) < 6 {
		t.Fatalf("only %d survivors for stripe %d", len(idx), lost[0].Stripe)
	}
	for i := range idx {
		if !c.Alive(holders[i]) {
			t.Fatal("survivor on failed node")
		}
		if idx[i] == lost[0].Index {
			t.Fatal("lost block listed as survivor")
		}
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 8, Racks: 2, MapSlotsPerNode: 1})
	p := newPlacement(4, 2, 1)
	// Unassigned block.
	if err := p.Validate(c); err == nil {
		t.Fatal("unassigned block must fail validation")
	}
	// Duplicate node.
	p.assign(0, 0, 0)
	p.assign(0, 1, 0)
	p.assign(0, 2, 1)
	p.assign(0, 3, 2)
	if err := p.Validate(c); err == nil {
		t.Fatal("duplicate node must fail validation")
	}
	// Rack over-concentration: nodes 0..3 are rack 0; n-k=2 allowed.
	p2 := newPlacement(4, 2, 1)
	p2.assign(0, 0, 0)
	p2.assign(0, 1, 1)
	p2.assign(0, 2, 2)
	p2.assign(0, 3, 4)
	if err := p2.Validate(c); err != nil {
		t.Fatalf("basic validation should pass: %v", err)
	}
	if err := validateRackConstraint(p2, c); err == nil {
		t.Fatal("3 blocks in one rack with n-k=2 must fail strict validation")
	}
}

func TestPlaceParamValidation(t *testing.T) {
	c := cluster40()
	rng := stats.NewRNG(6)
	for _, pol := range allPolicies() {
		if _, err := pol.Place(c, 1, 2, 2, rng); err == nil {
			t.Errorf("%s: n<=k must fail", pol.Name())
		}
		if _, err := pol.Place(c, -1, 4, 2, rng); err == nil {
			t.Errorf("%s: negative stripes must fail", pol.Name())
		}
		if _, err := pol.Place(c, 1, 60, 40, rng); err == nil {
			t.Errorf("%s: n > alive nodes must fail", pol.Name())
		}
	}
}

func TestPlaceOnSmallestViableCluster(t *testing.T) {
	// The motivating example: 5 nodes, racks of 3+2, (4,2) code.
	c := topology.MustNew(topology.Config{Nodes: 5, Racks: 2, MapSlotsPerNode: 2, RackSizes: []int{3, 2}})
	for _, pol := range allPolicies() {
		p, err := pol.Place(c, 6, 4, 2, stats.NewRNG(7))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if err := p.Validate(c); err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if _, rr := pol.(RoundRobin); !rr {
			if err := validateRackConstraint(p, c); err != nil {
				t.Fatalf("%s: %v", pol.Name(), err)
			}
		}
	}
}

func TestPlaceSkipsFailedNodes(t *testing.T) {
	c := cluster40()
	c.FailNode(3)
	for _, pol := range allPolicies() {
		p, err := pol.Place(c, 10, 8, 6, stats.NewRNG(8))
		if err != nil {
			t.Fatalf("%s: %v", pol.Name(), err)
		}
		if got := p.NodeBlocks(3); len(got) != 0 {
			t.Errorf("%s: placed %d blocks on failed node", pol.Name(), len(got))
		}
	}
}

func TestPlacementInvariantProperty(t *testing.T) {
	// Property: for random cluster shapes and codes, every policy result
	// validates.
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		racks := 2 + rng.Intn(4)
		nodesPerRack := 3 + rng.Intn(6)
		c := topology.MustNew(topology.Config{
			Nodes: racks * nodesPerRack, Racks: racks, MapSlotsPerNode: 2,
		})
		codes := [][2]int{{4, 2}, {6, 4}, {8, 6}, {9, 6}}
		nk := codes[rng.Intn(len(codes))]
		n, k := nk[0], nk[1]
		if n > c.NumNodes() {
			return true
		}
		// The rack constraint needs ceil(n / (n-k)) racks available.
		needRacks := (n + (n - k) - 1) / (n - k)
		if needRacks > racks {
			return true
		}
		for _, pol := range allPolicies() {
			p, err := pol.Place(c, 1+rng.Intn(30), n, k, rng)
			if err != nil {
				return false
			}
			if err := p.Validate(c); err != nil {
				return false
			}
			if _, rr := pol.(RoundRobin); !rr {
				if err := validateRackConstraint(p, c); err != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExplicitPlacement(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	e := Explicit{Assignments: [][]topology.NodeID{
		{0, 2, 1, 3},
		{1, 3, 0, 2},
	}}
	if e.Name() != "explicit" {
		t.Fatal("name wrong")
	}
	p, err := e.Place(c, 2, 4, 2, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Holder(erasure.BlockID{Stripe: 0, Index: 1}) != 2 ||
		p.Holder(erasure.BlockID{Stripe: 1, Index: 3}) != 2 {
		t.Fatal("explicit holders wrong")
	}
	if err := validateRackConstraint(p, c); err != nil {
		t.Fatal(err)
	}
}

func TestExplicitPlacementErrors(t *testing.T) {
	c := topology.MustNew(topology.Config{Nodes: 4, Racks: 2, MapSlotsPerNode: 1})
	rng := stats.NewRNG(2)
	cases := []struct {
		name string
		e    Explicit
		n, k int
		st   int
	}{
		{"bad nk", Explicit{Assignments: [][]topology.NodeID{{0, 1}}}, 2, 2, 1},
		{"stripe count mismatch", Explicit{Assignments: [][]topology.NodeID{{0, 1, 2, 3}}}, 4, 2, 2},
		{"block count mismatch", Explicit{Assignments: [][]topology.NodeID{{0, 1, 2}}}, 4, 2, 1},
		{"invalid node", Explicit{Assignments: [][]topology.NodeID{{0, 1, 2, 9}}}, 4, 2, 1},
		{"duplicate node", Explicit{Assignments: [][]topology.NodeID{{0, 1, 2, 2}}}, 4, 2, 1},
	}
	for _, tc := range cases {
		if _, err := tc.e.Place(c, tc.st, tc.n, tc.k, rng); err == nil {
			t.Errorf("%s: should fail", tc.name)
		}
	}
}

func TestReassign(t *testing.T) {
	c := cluster40()
	p, err := RoundRobin{}.Place(c, 4, 6, 4, stats.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	b := erasure.BlockID{Stripe: 2, Index: 1}
	from := p.Holder(b)
	// Pick a destination not holding any block of stripe 2.
	var to topology.NodeID = -1
	holders := make(map[topology.NodeID]bool)
	for _, h := range p.StripeHolders(2) {
		holders[h] = true
	}
	for _, node := range c.Nodes() {
		if !holders[node.ID] {
			to = node.ID
			break
		}
	}
	if to < 0 {
		t.Fatal("no free destination")
	}
	before := len(p.NodeBlocks(from))
	p.Reassign(b, to)
	if p.Holder(b) != to {
		t.Fatalf("Holder = %d, want %d", p.Holder(b), to)
	}
	if got := len(p.NodeBlocks(from)); got != before-1 {
		t.Fatalf("source inventory %d, want %d", got, before-1)
	}
	found := false
	for _, x := range p.NodeBlocks(to) {
		if x == b {
			found = true
		}
	}
	if !found {
		t.Fatal("block missing from destination inventory")
	}
	if err := p.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Self-reassign is a no-op.
	p.Reassign(b, to)
	if p.Holder(b) != to || len(p.NodeBlocks(to)) == 0 {
		t.Fatal("self-reassign corrupted state")
	}
}

// TestRackConstrainedRandomPlacementPinned pins the full placement of the
// simulator's default shape — (20,15), 36 native blocks per node, 10 nodes
// per rack, seed 1 — as an FNV-1a hash over every holder in (stripe,
// block) order, recorded before Place moved from maps to slices. Any
// change to the candidate set, its node-ID order or the RNG draw sequence
// moves it.
func TestRackConstrainedRandomPlacementPinned(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		fail  []topology.NodeID
		want  uint64
	}{
		{nodes: 40, want: 0x12d23aeedb5968e5},
		{nodes: 40, fail: []topology.NodeID{3, 17}, want: 0x13d809d8d97bafa0},
		{nodes: 400, want: 0xf42b5ba9704c935},
		{nodes: 1000, want: 0xdaad60f2500e9529},
	} {
		c := topology.MustNew(topology.Config{Nodes: tc.nodes, Racks: tc.nodes / 10, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
		for _, id := range tc.fail {
			c.FailNode(id)
		}
		stripes := tc.nodes * 36 / 15
		p, err := RackConstrainedRandom{}.Place(c, stripes, 20, 15, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [4]byte
		for s := 0; s < stripes; s++ {
			for _, id := range p.StripeHolders(s) {
				binary.LittleEndian.PutUint32(buf[:], uint32(id))
				h.Write(buf[:])
			}
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("%d nodes, failed %v: placement hash %#x, want %#x", tc.nodes, tc.fail, got, tc.want)
		}
	}
}
