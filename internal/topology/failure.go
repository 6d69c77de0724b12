package topology

import (
	"fmt"

	"degradedfirst/internal/stats"
)

// FailurePattern selects which failure scenario to inject, matching the
// patterns evaluated in Figure 7(d) of the paper.
type FailurePattern int

const (
	// NoFailure leaves the cluster in normal mode.
	NoFailure FailurePattern = iota
	// SingleNodeFailure fails one random node (the common case the paper
	// focuses on).
	SingleNodeFailure
	// DoubleNodeFailure fails two distinct random nodes.
	DoubleNodeFailure
	// RackFailure fails every node in one random rack.
	RackFailure
)

// String returns the pattern name.
func (p FailurePattern) String() string {
	switch p {
	case NoFailure:
		return "none"
	case SingleNodeFailure:
		return "single-node"
	case DoubleNodeFailure:
		return "double-node"
	case RackFailure:
		return "rack"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// InjectFailure applies the pattern to the cluster using rng for random
// choices, returning the failed node IDs. The cluster must have enough
// alive nodes; an error is returned otherwise.
func InjectFailure(c *Cluster, p FailurePattern, rng *stats.RNG) ([]NodeID, error) {
	switch p {
	case NoFailure:
		return nil, nil
	case SingleNodeFailure, DoubleNodeFailure:
		want := 1
		if p == DoubleNodeFailure {
			want = 2
		}
		alive := c.AliveNodes()
		if len(alive) <= want {
			return nil, fmt.Errorf("topology: cannot fail %d of %d alive nodes", want, len(alive))
		}
		var failed []NodeID
		for _, idx := range rng.PickK(len(alive), want) {
			id := alive[idx]
			c.FailNode(id)
			failed = append(failed, id)
		}
		return failed, nil
	case RackFailure:
		if c.NumRacks() < 2 {
			return nil, fmt.Errorf("topology: rack failure needs >= 2 racks, have %d", c.NumRacks())
		}
		r := RackID(rng.Intn(c.NumRacks()))
		failed := append([]NodeID(nil), c.RackNodes(r)...)
		c.FailRack(r)
		return failed, nil
	default:
		return nil, fmt.Errorf("topology: unknown failure pattern %v", p)
	}
}
