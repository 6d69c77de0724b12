// Package topology models the physical shape of the storage cluster: nodes
// (servers) grouped into racks connected by a two-level switch hierarchy
// (top-of-rack switches under a core switch), per-node task slots and
// processing speeds, and failure state.
//
// It corresponds to the cluster model of Section II-A / Figure 1 of the
// paper, including heterogeneous clusters (Section V-C) where some nodes
// have worse processing power.
package topology

import (
	"errors"
	"fmt"
	"math"
)

// NodeID identifies a node; IDs are dense in [0, NumNodes).
type NodeID int

// RackID identifies a rack; IDs are dense in [0, NumRacks).
type RackID int

// Locality classifies where a map task's input block lives relative to the
// node the task runs on (Section II-A). NodeLocal and RackLocal are
// collectively "local" in the paper's terminology.
type Locality int

const (
	// NodeLocal: the block is stored on the same node.
	NodeLocal Locality = iota
	// RackLocal: the block is on another node of the same rack.
	RackLocal
	// Remote: the block is on a node in a different rack.
	Remote
)

// Node is one server in the cluster.
type Node struct {
	ID   NodeID
	Rack RackID
	// MapSlots and ReduceSlots bound concurrent map/reduce tasks.
	MapSlots    int
	ReduceSlots int
	// SpeedFactor scales task processing times on this node: 1.0 is the
	// baseline; 2.0 means tasks take twice as long (a "bad" node in the
	// paper's heterogeneous and extreme scenarios).
	SpeedFactor float64

	failed bool
}

// Failed reports whether the node is currently failed.
func (n *Node) Failed() bool { return n.failed }

// Config describes a cluster to build.
type Config struct {
	// Nodes is the total number of nodes (excluding the master, which is
	// not modelled as a storage/compute node).
	Nodes int
	// Racks is the number of racks; nodes are spread round-robin so racks
	// differ in size by at most one (the paper uses evenly divisible
	// configurations; the motivating example uses 3+2).
	Racks int
	// MapSlotsPerNode and ReduceSlotsPerNode set per-node slot counts.
	MapSlotsPerNode    int
	ReduceSlotsPerNode int
	// RackSizes optionally sets explicit rack sizes (summing to Nodes),
	// overriding round-robin spreading — used for the paper's 3+2
	// motivating example.
	RackSizes []int
	// Spec, when set, builds a multi-tier cluster from the given fabric
	// spec instead of the two-level Nodes/Racks/RackSizes fields (which
	// must then be zero). Racks become the spec's leaf (tier-0) groups,
	// so all rack-keyed logic — placement constraints, EDF rack
	// awareness, failure patterns — operates on leaf groups unchanged.
	Spec *Spec
}

// Cluster is a set of nodes grouped into racks plus failure state. It is
// not safe for concurrent mutation; the simulator drives it from a single
// goroutine.
type Cluster struct {
	nodes []*Node
	racks [][]NodeID
	// spec is the fabric shape; legacy two-level configs get a one-tier
	// spec with unlimited capacities (netsim supplies legacy speeds).
	spec Spec
	// coords[node][tier] is the node's group index at each tier;
	// coords[node][0] is its rack. Rows are views into one backing
	// array, immutable after construction.
	coords [][]int
}

// New builds a cluster from the config. Every node starts alive with
// SpeedFactor 1.0.
func New(cfg Config) (*Cluster, error) {
	if cfg.MapSlotsPerNode <= 0 {
		return nil, errors.New("topology: MapSlotsPerNode must be positive")
	}
	if cfg.ReduceSlotsPerNode < 0 {
		return nil, errors.New("topology: ReduceSlotsPerNode must be non-negative")
	}
	spec := Spec{}
	if cfg.Spec != nil {
		if cfg.Nodes != 0 || cfg.Racks != 0 || len(cfg.RackSizes) != 0 {
			return nil, errors.New("topology: Spec excludes the Nodes/Racks/RackSizes fields")
		}
		spec = *cfg.Spec
	} else {
		if cfg.Nodes <= 0 {
			return nil, errors.New("topology: Nodes must be positive")
		}
		if cfg.Racks <= 0 {
			return nil, errors.New("topology: Racks must be positive")
		}
		if cfg.Racks > cfg.Nodes {
			return nil, fmt.Errorf("topology: more racks (%d) than nodes (%d)", cfg.Racks, cfg.Nodes)
		}
		if len(cfg.RackSizes) > 0 && len(cfg.RackSizes) != cfg.Racks {
			return nil, fmt.Errorf("topology: RackSizes has %d entries, want %d", len(cfg.RackSizes), cfg.Racks)
		}
		spec = TwoLevel(cfg.Nodes, cfg.Racks)
		spec.LeafSizes = cfg.RackSizes
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	coords := spec.memberCoords()
	c := &Cluster{
		nodes:  make([]*Node, spec.Nodes),
		racks:  make([][]NodeID, spec.NumLeaves()),
		spec:   spec,
		coords: coords,
	}
	for i := 0; i < spec.Nodes; i++ {
		n := &Node{
			ID:          NodeID(i),
			Rack:        RackID(coords[i][0]),
			MapSlots:    cfg.MapSlotsPerNode,
			ReduceSlots: cfg.ReduceSlotsPerNode,
			SpeedFactor: 1.0,
		}
		c.nodes[i] = n
		c.racks[n.Rack] = append(c.racks[n.Rack], n.ID)
	}
	return c, nil
}

// MustNew is New but panics on error; for known-good literal configs.
func MustNew(cfg Config) *Cluster {
	c, err := New(cfg)
	if err != nil {
		panic(fmt.Sprintf("topology: MustNew(%d nodes, %d racks): %v", cfg.Nodes, cfg.Racks, err))
	}
	return c
}

// NumNodes returns the total node count (alive or failed).
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// NumRacks returns the rack count.
func (c *Cluster) NumRacks() int { return len(c.racks) }

// Node returns the node with the given ID. Panics on out-of-range IDs:
// IDs are produced by this package, so that is a programming error.
func (c *Cluster) Node(id NodeID) *Node {
	return c.nodes[id]
}

// Nodes returns all nodes in ID order. The slice is shared; do not modify.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// RackNodes returns the IDs of the nodes in rack r, in ID order.
func (c *Cluster) RackNodes(r RackID) []NodeID { return c.racks[r] }

// RackOf returns the rack containing node id.
func (c *Cluster) RackOf(id NodeID) RackID { return c.nodes[id].Rack }

// Alive reports whether node id is not failed.
func (c *Cluster) Alive(id NodeID) bool { return !c.nodes[id].failed }

// AliveNodes returns the IDs of all non-failed nodes, in ID order.
func (c *Cluster) AliveNodes() []NodeID {
	out := make([]NodeID, 0, len(c.nodes))
	for _, n := range c.nodes {
		if !n.failed {
			out = append(out, n.ID)
		}
	}
	return out
}

// FailedNodes returns the IDs of all failed nodes, in ID order.
func (c *Cluster) FailedNodes() []NodeID {
	var out []NodeID
	for _, n := range c.nodes {
		if n.failed {
			out = append(out, n.ID)
		}
	}
	return out
}

// FailNode marks node id as failed. Failing an already-failed node is a
// no-op.
func (c *Cluster) FailNode(id NodeID) { c.nodes[id].failed = true }

// SetSpeedFactor sets the processing-time multiplier of node id.
func (c *Cluster) SetSpeedFactor(id NodeID, f float64) error {
	if id < 0 || int(id) >= len(c.nodes) {
		return fmt.Errorf("topology: no node %d to set a speed factor on", id)
	}
	if !(f > 0) || math.IsInf(f, 1) { // NaN and +Inf too: either stalls the engine mid-run
		return fmt.Errorf("topology: speed factor must be positive and finite, got %v", f)
	}
	c.nodes[id].SpeedFactor = f
	return nil
}

// LocalityOf classifies where block-holder `holder` is relative to
// executing node `exec`. It is the two-level projection of HopDistance:
// distance 0 is node-local, distance 2 (same leaf group) rack-local,
// anything farther remote.
func (c *Cluster) LocalityOf(exec, holder NodeID) Locality {
	switch {
	case exec == holder:
		return NodeLocal
	case c.nodes[exec].Rack == c.nodes[holder].Rack:
		return RackLocal
	default:
		return Remote
	}
}

// Spec returns the cluster's fabric spec. Legacy two-level configs carry
// a one-tier spec with unlimited capacities. The pointee is shared; do
// not modify.
func (c *Cluster) Spec() *Spec { return &c.spec }

// NumTiers returns the number of switching tiers above the nodes
// (excluding the implicit core root). Two-level clusters have 1.
func (c *Cluster) NumTiers() int { return len(c.spec.Tiers) }

// NodeCoords returns node id's group index at every tier, leaf first.
// The slice is shared and immutable; do not modify.
func (c *Cluster) NodeCoords(id NodeID) []int { return c.coords[id] }

// SharedTier returns the lowest switching tier a and b share: 0 when
// they are in the same leaf group (rack), len(Tiers) when only the core
// root connects them, and -1 when a == b. It is the path's turning
// point: traffic climbs exactly SharedTier up-links on each side.
func (c *Cluster) SharedTier(a, b NodeID) int {
	if a == b {
		return -1
	}
	ca, cb := c.coords[a], c.coords[b]
	for t := range ca {
		if ca[t] == cb[t] {
			return t
		}
	}
	return len(ca)
}

// HopDistance is the deterministic path length between two nodes in
// links (NICs and the core fabric included): 0 for the same node, 2
// within a leaf group, rising by 2 per tier climbed, plus 1 for the core
// fabric when only the root connects the pair. On two-level clusters the
// values 0/2/5 project exactly onto NodeLocal/RackLocal/Remote; netsim's
// per-pair link path has exactly this many links.
func (c *Cluster) HopDistance(a, b NodeID) int {
	if a == b {
		return 0
	}
	l := c.SharedTier(a, b)
	d := 2 + 2*l
	if l == len(c.spec.Tiers) {
		d++ // the core fabric link
	}
	return d
}

// TotalMapSlots returns the sum of map slots over alive nodes.
func (c *Cluster) TotalMapSlots() int {
	total := 0
	for _, n := range c.nodes {
		if !n.failed {
			total += n.MapSlots
		}
	}
	return total
}

// TotalReduceSlots returns the sum of reduce slots over alive nodes.
func (c *Cluster) TotalReduceSlots() int {
	total := 0
	for _, n := range c.nodes {
		if !n.failed {
			total += n.ReduceSlots
		}
	}
	return total
}
