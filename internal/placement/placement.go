// Package placement implements block-placement policies for erasure-coded
// stripes over a cluster, following Section III of the paper:
//
//   - every block of a stripe lives on a distinct node, and
//   - at most n-k blocks of any stripe share a rack, so an arbitrary
//     single-rack failure (and any n-k node failures) is tolerable.
//
// Two policies are provided, plus explicit assignment for the paper's
// worked examples: rack-constrained random placement (the HDFS-RAID-style
// default used by the simulator) and round-robin placement (the testbed
// setup of Section VI).
package placement

import (
	"fmt"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// Placement maps every block of every stripe to the node storing it.
type Placement struct {
	n, k    int
	stripes [][]topology.NodeID // stripes[s][i] = holder of block (s, i)
	byNode  map[topology.NodeID][]erasure.BlockID
}

// Policy produces placements.
type Policy interface {
	// Name identifies the policy in logs and experiment output.
	Name() string
	// Place assigns numStripes stripes of n blocks (k native) onto the
	// alive nodes of the cluster.
	Place(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error)
}

func newPlacement(n, k, numStripes int) *Placement {
	p := &Placement{
		n:       n,
		k:       k,
		stripes: make([][]topology.NodeID, numStripes),
		byNode:  make(map[topology.NodeID][]erasure.BlockID),
	}
	for s := range p.stripes {
		p.stripes[s] = make([]topology.NodeID, n)
		for i := range p.stripes[s] {
			p.stripes[s][i] = -1
		}
	}
	return p
}

func (p *Placement) assign(s, i int, id topology.NodeID) {
	p.stripes[s][i] = id
	p.byNode[id] = append(p.byNode[id], erasure.BlockID{Stripe: s, Index: i})
}

// N returns the stripe width.
func (p *Placement) N() int { return p.n }

// K returns the native block count per stripe.
func (p *Placement) K() int { return p.k }

// NumStripes returns how many stripes are placed.
func (p *Placement) NumStripes() int { return len(p.stripes) }

// NumNativeBlocks returns the total count of native blocks (stripes * k).
func (p *Placement) NumNativeBlocks() int { return len(p.stripes) * p.k }

// Holder returns the node storing block b.
func (p *Placement) Holder(b erasure.BlockID) topology.NodeID {
	return p.stripes[b.Stripe][b.Index]
}

// StripeHolders returns the holders of all n blocks of stripe s, in block
// index order. The slice is shared; do not modify.
func (p *Placement) StripeHolders(s int) []topology.NodeID { return p.stripes[s] }

// NodeBlocks returns the blocks stored on node id (nil if none). The slice
// is shared; do not modify.
func (p *Placement) NodeBlocks(id topology.NodeID) []erasure.BlockID {
	return p.byNode[id]
}

// NativeBlocks returns all native BlockIDs in (stripe, index) order.
func (p *Placement) NativeBlocks() []erasure.BlockID {
	out := make([]erasure.BlockID, 0, p.NumNativeBlocks())
	for s := range p.stripes {
		for i := 0; i < p.k; i++ {
			out = append(out, erasure.BlockID{Stripe: s, Index: i})
		}
	}
	return out
}

// Validate checks the basic placement invariants against the cluster:
// every block assigned to a valid node, and all blocks of a stripe on
// distinct nodes (so one node failure loses at most one block per stripe).
func (p *Placement) Validate(c *topology.Cluster) error {
	for s, holders := range p.stripes {
		seenNode := make(map[topology.NodeID]bool, p.n)
		for i, id := range holders {
			if id < 0 || int(id) >= c.NumNodes() {
				return fmt.Errorf("placement: stripe %d block %d unassigned or invalid (node %d)", s, i, id)
			}
			if seenNode[id] {
				return fmt.Errorf("placement: stripe %d has two blocks on node %d", s, id)
			}
			seenNode[id] = true
		}
	}
	return nil
}

// Reassign moves block b to node to, updating both the stripe map and
// the per-node index. The background repair subsystem calls this after
// reconstructing a lost block on a new holder; the old (failed) holder
// drops the block from its inventory so a later revive cannot resurrect
// a stale copy.
func (p *Placement) Reassign(b erasure.BlockID, to topology.NodeID) {
	from := p.stripes[b.Stripe][b.Index]
	if from == to {
		return
	}
	p.stripes[b.Stripe][b.Index] = to
	pool := p.byNode[from]
	for i, x := range pool {
		if x == b {
			p.byNode[from] = append(pool[:i], pool[i+1:]...)
			break
		}
	}
	if len(p.byNode[from]) == 0 {
		delete(p.byNode, from)
	}
	p.byNode[to] = append(p.byNode[to], b)
}

// SurvivorsOf returns the indices (within stripe s) and holders of the
// blocks of stripe s whose nodes are alive.
func (p *Placement) SurvivorsOf(c *topology.Cluster, s int) (idx []int, holders []topology.NodeID) {
	for i, id := range p.stripes[s] {
		if c.Alive(id) {
			idx = append(idx, i)
			holders = append(holders, id)
		}
	}
	return idx, holders
}

// --- Policies ---

// RackConstrainedRandom mimics the HDFS-RAID default described in Section
// III: each block goes to a random node subject to the per-stripe
// constraints, with light load balancing (prefer less-loaded nodes among
// valid candidates).
type RackConstrainedRandom struct{}

// Name implements Policy.
func (RackConstrainedRandom) Name() string { return "rack-constrained-random" }

// Place implements Policy.
func (RackConstrainedRandom) Place(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error) {
	if err := checkParams(c, n, k, numStripes); err != nil {
		return nil, err
	}
	p := newPlacement(n, k, numStripes)
	nodes := c.Nodes()
	load := make([]int, len(nodes))
	stamp := make([]int, len(nodes)) // stamp[id] == s+1: node id already holds a block of stripe s
	perRack := make([]int, c.NumRacks())
	cands := make([]topology.NodeID, 0, len(nodes))
	for s := 0; s < numStripes; s++ {
		clear(perRack)
		for i := 0; i < n; i++ {
			// Candidates: alive, unused in this stripe, rack not full.
			cands = cands[:0]
			minLoad := int(^uint(0) >> 1)
			for _, node := range nodes {
				if node.Failed() || stamp[node.ID] == s+1 || perRack[node.Rack] >= n-k {
					continue
				}
				switch l := load[node.ID]; {
				case l < minLoad:
					minLoad = l
					cands = append(cands[:0], node.ID)
				case l == minLoad:
					cands = append(cands, node.ID)
				}
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("placement: no valid node for stripe %d block %d (cluster too small for (%d,%d))", s, i, n, k)
			}
			id := cands[rng.Intn(len(cands))]
			p.assign(s, i, id)
			stamp[id] = s + 1
			perRack[c.RackOf(id)]++
			load[id]++
		}
	}
	return p, nil
}

// RoundRobin places consecutive blocks on consecutive nodes, as in the
// paper's testbed ("blocks are placed in the slaves in a round-robin manner
// for load balancing", Section VI). The node order interleaves racks so a
// stripe spreads across racks as evenly as possible, but — exactly like the
// paper's testbed — the strict Section III rack constraint is best-effort
// only (e.g. (12,10) over 3 racks necessarily puts 4 blocks in some rack).
type RoundRobin struct{}

// Name implements Policy.
func (RoundRobin) Name() string { return "round-robin" }

// Place implements Policy.
func (RoundRobin) Place(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error) {
	if err := checkParams(c, n, k, numStripes); err != nil {
		return nil, err
	}
	// Build a rack-interleaved node order: rack0[0], rack1[0], ...,
	// rack0[1], rack1[1], ... skipping failed nodes.
	var order []topology.NodeID
	for depth := 0; ; depth++ {
		added := false
		for r := 0; r < c.NumRacks(); r++ {
			var aliveInRack []topology.NodeID
			for _, id := range c.RackNodes(topology.RackID(r)) {
				if c.Alive(id) {
					aliveInRack = append(aliveInRack, id)
				}
			}
			if depth < len(aliveInRack) {
				order = append(order, aliveInRack[depth])
				added = true
			}
		}
		if !added {
			break
		}
	}
	p := newPlacement(n, k, numStripes)
	cursor := 0
	for s := 0; s < numStripes; s++ {
		for i := 0; i < n; i++ {
			p.assign(s, i, order[(cursor+i)%len(order)])
		}
		cursor = (cursor + n) % len(order)
	}
	return p, nil
}

// Explicit places blocks exactly as given: Assignments[s][i] is the node
// holding block i of stripe s. Used to reproduce the paper's worked
// examples (Figures 2 and 4), whose placements are fixed by construction.
type Explicit struct {
	Assignments [][]topology.NodeID
}

// Name implements Policy.
func (Explicit) Name() string { return "explicit" }

// Place implements Policy. numStripes, n and k must match the shape of
// Assignments.
func (e Explicit) Place(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error) {
	if k <= 0 || n <= k {
		return nil, fmt.Errorf("placement: invalid (n,k)=(%d,%d)", n, k)
	}
	if len(e.Assignments) != numStripes {
		return nil, fmt.Errorf("placement: explicit assignment has %d stripes, want %d", len(e.Assignments), numStripes)
	}
	p := newPlacement(n, k, numStripes)
	for s, holders := range e.Assignments {
		if len(holders) != n {
			return nil, fmt.Errorf("placement: explicit stripe %d has %d blocks, want %d", s, len(holders), n)
		}
		for i, id := range holders {
			if id < 0 || int(id) >= c.NumNodes() {
				return nil, fmt.Errorf("placement: explicit stripe %d block %d on invalid node %d", s, i, id)
			}
			p.assign(s, i, id)
		}
	}
	if err := p.Validate(c); err != nil {
		return nil, err
	}
	return p, nil
}

func checkParams(c *topology.Cluster, n, k, numStripes int) error {
	if k <= 0 || n <= k {
		return fmt.Errorf("placement: invalid (n,k)=(%d,%d)", n, k)
	}
	if numStripes < 0 {
		return fmt.Errorf("placement: negative stripe count %d", numStripes)
	}
	if alive := len(c.AliveNodes()); alive < n {
		return fmt.Errorf("placement: need >= n=%d alive nodes, have %d", n, alive)
	}
	return nil
}
