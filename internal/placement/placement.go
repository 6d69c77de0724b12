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
	mbits "math/bits"
	"slices"
	"sync"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// Placement maps every block of every stripe to the node storing it.
type Placement struct {
	n, k    int
	holders []topology.NodeID // holders[s*n+i] = holder of block (s, i)
	// byNode[id] lists node id's blocks. It is built from holders the
	// first time NodeBlocks or Reassign needs it, so a file nobody asks
	// per-node questions of never pays for it; the Once lets concurrent
	// readers (the TCP master registers workers in parallel) share it.
	byNode  [][]erasure.BlockID
	indexed sync.Once
}

// Policy produces placements.
type Policy interface {
	// Place assigns numStripes stripes of n blocks (k native) onto the
	// alive nodes of the cluster.
	Place(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error)
}

func newPlacement(n, k, numStripes int) *Placement {
	p := &Placement{n: n, k: k, holders: make([]topology.NodeID, numStripes*n)}
	for i := range p.holders {
		p.holders[i] = -1
	}
	return p
}

func (p *Placement) assign(s, i int, id topology.NodeID) { p.holders[s*p.n+i] = id }

// index builds byNode once, listing each node's blocks in (stripe, index)
// order: the order assignment visits them.
func (p *Placement) index() { p.indexed.Do(p.buildIndex) }

// buildIndex fills byNode. Every list is a capacity-capped view of one
// backing array, so Reassign's append copies a list out instead of
// writing over its neighbour's.
func (p *Placement) buildIndex() {
	var nodes int
	for _, id := range p.holders {
		nodes = max(nodes, int(id)+1)
	}
	off := make([]int, nodes+1) // node id's blocks go to backing[off[id]:off[id+1]]
	for _, id := range p.holders {
		off[id+1]++
	}
	for id := 1; id <= nodes; id++ {
		off[id] += off[id-1]
	}
	backing := make([]erasure.BlockID, len(p.holders))
	next := append([]int(nil), off[:nodes]...)
	for x, id := range p.holders {
		backing[next[id]] = erasure.BlockID{Stripe: x / p.n, Index: x % p.n}
		next[id]++
	}
	p.byNode = make([][]erasure.BlockID, nodes)
	for id := range p.byNode {
		if lo, hi := off[id], off[id+1]; hi > lo {
			p.byNode[id] = backing[lo:hi:hi]
		}
	}
}

// N returns the stripe width.
func (p *Placement) N() int { return p.n }

// K returns the native block count per stripe.
func (p *Placement) K() int { return p.k }

// NumStripes returns how many stripes are placed.
func (p *Placement) NumStripes() int { return len(p.holders) / p.n }

// NumNativeBlocks returns the total count of native blocks (stripes * k).
func (p *Placement) NumNativeBlocks() int { return p.NumStripes() * p.k }

// Holder returns the node storing block b.
func (p *Placement) Holder(b erasure.BlockID) topology.NodeID {
	return p.holders[b.Stripe*p.n+b.Index]
}

// StripeHolders returns the holders of all n blocks of stripe s, in block
// index order. The slice is shared; do not modify.
func (p *Placement) StripeHolders(s int) []topology.NodeID {
	return p.holders[s*p.n : (s+1)*p.n : (s+1)*p.n]
}

// NodeBlocks returns the blocks stored on node id (nil if none). The slice
// is shared; do not modify.
func (p *Placement) NodeBlocks(id topology.NodeID) []erasure.BlockID {
	p.index()
	if int(id) >= len(p.byNode) {
		return nil
	}
	return p.byNode[id]
}

// NativeBlocks returns all native BlockIDs in (stripe, index) order.
func (p *Placement) NativeBlocks() []erasure.BlockID {
	out := make([]erasure.BlockID, 0, p.NumNativeBlocks())
	for s := range p.NumStripes() {
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
	for s := range p.NumStripes() {
		holders := p.StripeHolders(s)
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
	x := b.Stripe*p.n + b.Index
	from := p.holders[x]
	if from == to {
		return
	}
	p.index()
	p.holders[x] = to
	pool := p.byNode[from]
	for i, y := range pool {
		if y == b {
			p.byNode[from] = append(pool[:i], pool[i+1:]...)
			break
		}
	}
	if len(p.byNode[from]) == 0 {
		p.byNode[from] = nil
	}
	if short := int(to) + 1 - len(p.byNode); short > 0 {
		p.byNode = append(p.byNode, make([][]erasure.BlockID, short)...)
	}
	p.byNode[to] = append(p.byNode[to], b)
}

// SurvivorsOf appends to idx and holders the indices (within stripe s) and
// holders of the blocks of stripe s whose nodes are alive, in index order,
// and returns them: a caller may pass scratch to fill.
func (p *Placement) SurvivorsOf(c *topology.Cluster, s int, idx []int, holders []topology.NodeID) ([]int, []topology.NodeID) {
	for i, id := range p.StripeHolders(s) {
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
//
// A block's candidates are the alive nodes that hold no block of its
// stripe, in racks holding fewer than n-k of them, and carrying the fewest
// blocks of this file among such nodes; it goes to candidate
// rng.Intn(count) in node-ID order. Place finds them without visiting
// every node: the alive nodes sit in one bitset per load level, the nodes
// a stripe excludes in one more, and a block costs a pass over the words
// of the lowest levels until one has a candidate, plus moving the chosen
// node one level up.
type RackConstrainedRandom struct{}

// Place implements Policy.
func (RackConstrainedRandom) Place(c *topology.Cluster, numStripes, n, k int, rng *stats.RNG) (*Placement, error) {
	if err := checkParams(c, n, k, numStripes); err != nil {
		return nil, err
	}
	p := newPlacement(n, k, numStripes)
	pl := newPlacer(c)
	for s := 0; s < numStripes; s++ {
		holders := p.holders[s*n : (s+1)*n]
		for i := range holders {
			id, ok := pl.pick(rng)
			if !ok {
				return nil, fmt.Errorf("placement: no valid node for stripe %d block %d (cluster too small for (%d,%d))", s, i, n, k)
			}
			holders[i] = id
			pl.exclude(id, n-k)
		}
		pl.endStripe(holders, n-k)
	}
	return p, nil
}

// levelSet is the set of alive nodes that already hold load blocks of the
// file being placed, as a bitset over node IDs.
type levelSet struct {
	load int
	size int
	bits []uint64
}

// placer is RackConstrainedRandom's scratch for one Place call.
type placer struct {
	c       *topology.Cluster
	words   int        // bitset length: ceil(nodes / 64)
	levels  []levelSet // the non-empty load levels, ascending
	spare   [][]uint64 // bitsets of emptied levels, for the next new level
	ex      []uint64   // nodes the current stripe excludes
	perRack []int      // blocks of the current stripe in each rack
}

// newPlacer readies the scratch for one file on c: every alive node at
// load 0, nothing excluded.
func newPlacer(c *topology.Cluster) *placer {
	pl := &placer{
		c:       c,
		words:   (c.NumNodes() + 63) / 64,
		perRack: make([]int, c.NumRacks()),
	}
	pl.ex = make([]uint64, pl.words)
	l := levelSet{bits: pl.newBits()}
	for _, node := range c.Nodes() {
		if !node.Failed() {
			l.bits[node.ID>>6] |= 1 << (node.ID & 63)
			l.size++
		}
	}
	pl.levels = append(pl.levels, l)
	return pl
}

// newBits returns a zeroed bitset, reusing an emptied level's.
func (pl *placer) newBits() []uint64 {
	n := len(pl.spare)
	if n == 0 {
		return make([]uint64, pl.words)
	}
	b := pl.spare[n-1]
	pl.spare = pl.spare[:n-1]
	clear(b)
	return b
}

// pick draws the next block's holder: candidate rng.Intn(count), in node-ID
// order, of the lowest load level that has any candidate. It moves the
// node one level up and reports false when no level has a candidate.
func (pl *placer) pick(rng *stats.RNG) (topology.NodeID, bool) {
	for li := range pl.levels {
		bits := pl.levels[li].bits
		count := 0
		for w, b := range bits {
			count += mbits.OnesCount64(b &^ pl.ex[w])
		}
		if count == 0 {
			continue
		}
		j := rng.Intn(count)
		for w, b := range bits {
			b &^= pl.ex[w]
			if c := mbits.OnesCount64(b); j >= c {
				j -= c
				continue
			}
			for ; j > 0; j-- {
				b &= b - 1 // drop the lowest candidate
			}
			id := topology.NodeID(w<<6 + mbits.TrailingZeros64(b))
			pl.promote(li, id)
			return id, true
		}
	}
	return -1, false
}

// promote moves node id from level li to the level one load higher,
// making that level if it is new and dropping li if it empties.
func (pl *placer) promote(li int, id topology.NodeID) {
	w, bit := id>>6, uint64(1)<<(id&63)
	load := pl.levels[li].load + 1
	if li+1 == len(pl.levels) || pl.levels[li+1].load != load {
		pl.levels = slices.Insert(pl.levels, li+1, levelSet{load: load, bits: pl.newBits()})
	}
	up := &pl.levels[li+1]
	up.bits[w] |= bit
	up.size++
	l := &pl.levels[li]
	l.bits[w] &^= bit
	if l.size--; l.size == 0 {
		pl.spare = append(pl.spare, l.bits)
		pl.levels = slices.Delete(pl.levels, li, li+1)
	}
}

// exclude takes node id out of the current stripe's candidates, and its
// whole rack once the rack holds maxPerRack of the stripe's blocks.
func (pl *placer) exclude(id topology.NodeID, maxPerRack int) {
	pl.ex[id>>6] |= 1 << (id & 63)
	r := pl.c.RackOf(id)
	if pl.perRack[r]++; pl.perRack[r] == maxPerRack {
		for _, m := range pl.c.RackNodes(r) {
			pl.ex[m>>6] |= 1 << (m & 63)
		}
	}
}

// endStripe clears the exclusions of the stripe whose holders these are,
// visiting only their racks.
func (pl *placer) endStripe(holders []topology.NodeID, maxPerRack int) {
	for _, id := range holders {
		r := pl.c.RackOf(id)
		if pl.perRack[r] >= maxPerRack {
			for _, m := range pl.c.RackNodes(r) {
				pl.ex[m>>6] &^= 1 << (m & 63)
			}
		} else {
			pl.ex[id>>6] &^= 1 << (id & 63)
		}
		pl.perRack[r] = 0 // a later holder in r clears only its own bit
	}
}

// RoundRobin places consecutive blocks on consecutive nodes, as in the
// paper's testbed ("blocks are placed in the slaves in a round-robin manner
// for load balancing", Section VI). The node order interleaves racks so a
// stripe spreads across racks as evenly as possible, but — exactly like the
// paper's testbed — the strict Section III rack constraint is best-effort
// only (e.g. (12,10) over 3 racks necessarily puts 4 blocks in some rack).
type RoundRobin struct{}

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
	alive := 0
	for _, node := range c.Nodes() {
		if !node.Failed() {
			alive++
		}
	}
	if alive < n {
		return fmt.Errorf("placement: need >= n=%d alive nodes, have %d", n, alive)
	}
	return nil
}
