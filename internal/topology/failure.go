package topology

import (
	"fmt"
	"strings"

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

// MarshalText spells a pattern by its name.
func (p FailurePattern) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText accepts a pattern's name, or the name without its
// "-node" suffix ("single" for "single-node"), in any case.
func (p *FailurePattern) UnmarshalText(b []byte) error {
	low := strings.ToLower(string(b))
	var names []string
	for v := NoFailure; v <= RackFailure; v++ {
		if name := v.String(); low == name || low == strings.TrimSuffix(name, "-node") {
			*p = v
			return nil
		}
		names = append(names, v.String())
	}
	return fmt.Errorf("unknown failure %q (%s)", b, strings.Join(names, ", "))
}

// PickFailure chooses the nodes the pattern fails, using rng for random
// choices, and fails none of them: the caller fails them when it is time.
// The cluster must have enough alive nodes; an error is returned
// otherwise.
func PickFailure(c *Cluster, p FailurePattern, rng *stats.RNG) ([]NodeID, error) {
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
		for _, idx := range rng.PickK(nil, len(alive), want) {
			failed = append(failed, alive[idx])
		}
		return failed, nil
	case RackFailure:
		if c.NumRacks() < 2 {
			return nil, fmt.Errorf("topology: rack failure needs >= 2 racks, have %d", c.NumRacks())
		}
		r := RackID(rng.Intn(c.NumRacks()))
		return append([]NodeID(nil), c.RackNodes(r)...), nil
	default:
		return nil, fmt.Errorf("topology: unknown failure pattern %v", p)
	}
}
