package erasure

import (
	"fmt"

	"degradedfirst/internal/gf256"
)

// LRC is an Azure-style Local Reconstruction Code (Huang et al., USENIX
// ATC 2012 — reference [20] of the paper). k data blocks are split into l
// local groups of k/l blocks; each group gets one XOR local parity, and g
// global Reed-Solomon parities cover all k data blocks. A single lost
// data block is repaired from its local group — k/l blocks instead of k —
// which is exactly the "special erasure code constructions ... to reduce
// the number of blocks read" that footnote 1 of the paper says
// degraded-first scheduling also applies to.
//
// Block layout within a stripe: indices [0, k) are data, [k, k+l) are the
// local parities (group i's parity at k+i), and [k+l, k+l+g) are the
// global parities.
type LRC struct {
	linear
	l         int
	groupSize int
	// local holds, at [idx*groupSize, (idx+1)*groupSize), the local repair
	// group of each data and local-parity block idx.
	local []int
}

// NewLRC builds an LRC(k, l, g) code. k must be divisible by l; l and g
// must be positive.
func NewLRC(k, l, g int) (*LRC, error) {
	if k <= 0 || l <= 0 || g <= 0 {
		return nil, fmt.Errorf("%w: LRC(k=%d, l=%d, g=%d)", ErrInvalidParams, k, l, g)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("%w: LRC k=%d not divisible by l=%d", ErrInvalidParams, k, l)
	}
	if k+l+g > 256 {
		return nil, fmt.Errorf("%w: LRC stripe width %d exceeds field size", ErrInvalidParams, k+l+g)
	}
	// Parity rows: l group indicators (all-ones over a group, so a local
	// parity is a plain XOR), then g Cauchy rows (any g columns independent).
	groupSize := k / l
	parity := gf256.NewMatrix(l+g, k)
	for i := 0; i < k; i++ {
		parity.Set(i/groupSize, i, 1)
	}
	global := gf256.Cauchy(g, k)
	for r := 0; r < g; r++ {
		copy(parity.Row(l+r), global.Row(r))
	}
	c := &LRC{linear: newLinear(k, parity), l: l, groupSize: groupSize}
	for idx := 0; idx < k+l; idx++ {
		group := c.GroupOf(idx)
		for i := group * groupSize; i < (group+1)*groupSize; i++ {
			if i != idx {
				c.local = append(c.local, i)
			}
		}
		if parity := k + group; parity != idx {
			c.local = append(c.local, parity)
		}
	}
	return c, nil
}

// GroupOf returns the local group of a data or local-parity block index,
// or -1 for global parities.
func (c *LRC) GroupOf(idx int) int {
	switch {
	case idx < 0 || idx >= c.n:
		return -1
	case idx < c.k:
		return idx / c.groupSize
	case idx < c.k+c.l:
		return idx - c.k
	default:
		return -1
	}
}

// LocalRepairGroup returns the block indices needed to repair block idx
// locally: for a data block, the rest of its group plus the group parity;
// for a local parity, the group's data. Global parities have no local
// group; ok is false and the caller must fall back to a global decode.
// The group is built once, with the code, and shared: callers only read it.
func (c *LRC) LocalRepairGroup(idx int) (sources []int, ok bool) {
	if c.GroupOf(idx) < 0 {
		return nil, false
	}
	lo, hi := idx*c.groupSize, (idx+1)*c.groupSize
	return c.local[lo:hi:hi], true
}
