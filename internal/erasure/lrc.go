package erasure

import (
	"bytes"
	"errors"
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
	k, l, g   int
	groupSize int
	// global is the g x k matrix of global parity coefficients (Cauchy
	// rows, so any g columns are independent).
	global *gf256.Matrix
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
	return &LRC{
		k: k, l: l, g: g,
		groupSize: k / l,
		global:    gf256.Cauchy(g, k),
	}, nil
}

// MustNewLRC is NewLRC but panics on error.
func MustNewLRC(k, l, g int) *LRC {
	c, err := NewLRC(k, l, g)
	if err != nil {
		panic(fmt.Sprintf("erasure: MustNewLRC(%d, %d, %d): %v", k, l, g, err))
	}
	return c
}

// N returns the stripe width k+l+g.
func (c *LRC) N() int { return c.k + c.l + c.g }

// K returns the data block count.
func (c *LRC) K() int { return c.k }

// Groups returns the number of local groups l.
func (c *LRC) Groups() int { return c.l }

// GlobalParities returns g.
func (c *LRC) GlobalParities() int { return c.g }

// String implements fmt.Stringer, e.g. "LRC(12,2,2)".
func (c *LRC) String() string { return fmt.Sprintf("LRC(%d,%d,%d)", c.k, c.l, c.g) }

// StorageOverhead returns (l+g)/k.
func (c *LRC) StorageOverhead() float64 { return float64(c.l+c.g) / float64(c.k) }

// GroupOf returns the local group of a data or local-parity block index,
// or -1 for global parities.
func (c *LRC) GroupOf(idx int) int {
	switch {
	case idx < 0 || idx >= c.N():
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
func (c *LRC) LocalRepairGroup(idx int) (sources []int, ok bool) {
	group := c.GroupOf(idx)
	if group < 0 {
		return nil, false
	}
	for i := group * c.groupSize; i < (group+1)*c.groupSize; i++ {
		if i != idx {
			sources = append(sources, i)
		}
	}
	if parity := c.k + group; parity != idx {
		sources = append(sources, parity)
	}
	return sources, true
}

// Encode computes the l local and g global parity shards for k data
// shards, returned as one slice in stripe order (locals then globals).
func (c *LRC) Encode(data [][]byte) ([][]byte, error) {
	if err := c.checkData(data); err != nil {
		return nil, err
	}
	size := len(data[0])
	parity := make([][]byte, c.l+c.g)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	// Local parities: XOR of each group (word-wide AddSlice kernel).
	for grp := 0; grp < c.l; grp++ {
		for i := grp * c.groupSize; i < (grp+1)*c.groupSize; i++ {
			gf256.AddSlice(data[i], parity[grp])
		}
	}
	// Global parities: Cauchy combinations of all data, fused across the
	// k sources.
	for r := 0; r < c.g; r++ {
		gf256.MulAddSlices(c.global.Row(r), data, parity[c.l+r])
	}
	return parity, nil
}

// EncodeStripe returns all n shards: data (aliased) then parity.
func (c *LRC) EncodeStripe(data [][]byte) ([][]byte, error) {
	parity, err := c.Encode(data)
	if err != nil {
		return nil, err
	}
	stripe := make([][]byte, 0, c.N())
	stripe = append(stripe, data...)
	stripe = append(stripe, parity...)
	return stripe, nil
}

// ReconstructBlock repairs a single lost block from the provided sources.
// If srcIdx is exactly the block's local repair group the repair is a
// cheap XOR; otherwise a general decode over the supplied equations is
// attempted.
func (c *LRC) ReconstructBlock(idx int, srcIdx []int, sources [][]byte) ([]byte, error) {
	if idx < 0 || idx >= c.N() {
		return nil, fmt.Errorf("erasure: LRC block index %d out of range", idx)
	}
	if len(srcIdx) != len(sources) || len(sources) == 0 {
		return nil, fmt.Errorf("%w: %d indices for %d sources", ErrShardCount, len(srcIdx), len(sources))
	}
	size := len(sources[0])
	for i, s := range sources {
		if len(s) != size {
			return nil, ErrShardSizeMismatch
		}
		if srcIdx[i] == idx {
			out := make([]byte, size)
			copy(out, s)
			return out, nil
		}
	}
	// Local repair path: sources comprise the whole local group, so the
	// repair is a pure XOR — word-wide, and chunked across workers for
	// large blocks (byte-identical to the serial path; see forEachChunk).
	if group, ok := c.LocalRepairGroup(idx); ok && sameSet(group, srcIdx) {
		out := make([]byte, size)
		forEachChunk(size, reconstructWorkers(size), func(lo, hi int) {
			for _, s := range sources {
				gf256.AddSlice(s[lo:hi], out[lo:hi])
			}
		})
		return out, nil
	}
	// General path: reconstruct the whole stripe from what we have.
	shards := make([][]byte, c.N())
	for i, id := range srcIdx {
		if id < 0 || id >= c.N() {
			return nil, fmt.Errorf("erasure: LRC source index %d out of range", id)
		}
		shards[id] = sources[i]
	}
	if err := c.Reconstruct(shards); err != nil {
		return nil, err
	}
	return shards[idx], nil
}

// Reconstruct fills every nil shard of the stripe in place, solving the
// available parity equations over the missing data blocks. It returns an
// error when the erasure pattern is unrecoverable.
func (c *LRC) Reconstruct(shards [][]byte) error {
	if len(shards) != c.N() {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.N())
	}
	size := -1
	for _, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSizeMismatch
		}
	}
	if size <= 0 {
		return errors.New("erasure: LRC stripe has no shards")
	}

	// Unknowns: the missing *data* blocks. Build one equation per
	// available parity block whose combination involves a missing data
	// block; constants fold in the known data.
	var missingData []int
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missingData = append(missingData, i)
		}
	}
	if len(missingData) > 0 {
		col := make(map[int]int, len(missingData))
		for j, idx := range missingData {
			col[idx] = j
		}
		var (
			eqCoeffs [][]byte
			eqRHS    [][]byte
		)
		addEq := func(coeffRow func(dataIdx int) byte, parityShard []byte) {
			co := make([]byte, len(missingData))
			involved := false
			rhs := make([]byte, size)
			copy(rhs, parityShard)
			for i := 0; i < c.k; i++ {
				coeff := coeffRow(i)
				if coeff == 0 {
					continue
				}
				if shards[i] != nil {
					gf256.MulSlice(coeff, shards[i], rhs) // move knowns to RHS
				} else {
					co[col[i]] = coeff
					involved = true
				}
			}
			if involved {
				eqCoeffs = append(eqCoeffs, co)
				eqRHS = append(eqRHS, rhs)
			}
		}
		for grp := 0; grp < c.l; grp++ {
			if shards[c.k+grp] == nil {
				continue
			}
			grp := grp
			addEq(func(i int) byte {
				if i/c.groupSize == grp {
					return 1
				}
				return 0
			}, shards[c.k+grp])
		}
		for r := 0; r < c.g; r++ {
			if shards[c.k+c.l+r] == nil {
				continue
			}
			row := c.global.Row(r)
			addEq(func(i int) byte { return row[i] }, shards[c.k+c.l+r])
		}
		if len(eqCoeffs) < len(missingData) {
			return fmt.Errorf("erasure: LRC pattern unrecoverable: %d unknowns, %d equations", len(missingData), len(eqCoeffs))
		}
		// Solve by Gaussian elimination over the equation set.
		solved, err := solveLinear(eqCoeffs, eqRHS, len(missingData), size)
		if err != nil {
			return fmt.Errorf("erasure: LRC pattern unrecoverable: %w", err)
		}
		for j, idx := range missingData {
			shards[idx] = solved[j]
		}
	}
	// All data present: recompute missing parities.
	parity, err := c.Encode(shards[:c.k])
	if err != nil {
		return err
	}
	for i := 0; i < c.l+c.g; i++ {
		if shards[c.k+i] == nil {
			shards[c.k+i] = parity[i]
		}
	}
	return nil
}

// Verify checks a complete stripe's parity consistency.
func (c *LRC) Verify(shards [][]byte) (bool, error) {
	if len(shards) != c.N() {
		return false, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.N())
	}
	for i, s := range shards {
		if s == nil {
			return false, fmt.Errorf("erasure: shard %d is nil", i)
		}
	}
	parity, err := c.Encode(shards[:c.k])
	if err != nil {
		return false, err
	}
	for i, p := range parity {
		if !bytes.Equal(p, shards[c.k+i]) {
			return false, nil
		}
	}
	return true, nil
}

func (c *LRC) checkData(data [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("%w: got %d, want k=%d", ErrShardCount, len(data), c.k)
	}
	size := -1
	for i, s := range data {
		if s == nil {
			return fmt.Errorf("erasure: data shard %d is nil", i)
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSizeMismatch
		}
	}
	if size == 0 {
		return errors.New("erasure: zero-length shards")
	}
	return nil
}

// solveLinear solves A·x = b over GF(256), where A is rows x unknowns and
// each b row is a byte vector of length size. Rows may exceed unknowns
// (overdetermined but consistent systems are fine).
func solveLinear(a [][]byte, b [][]byte, unknowns, size int) ([][]byte, error) {
	// Work on copies.
	rows := len(a)
	mat := make([][]byte, rows)
	rhs := make([][]byte, rows)
	for i := range a {
		mat[i] = append([]byte(nil), a[i]...)
		rhs[i] = append([]byte(nil), b[i]...)
	}
	rank := 0
	for col := 0; col < unknowns; col++ {
		pivot := -1
		for r := rank; r < rows; r++ {
			if mat[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, gf256.ErrSingular
		}
		mat[rank], mat[pivot] = mat[pivot], mat[rank]
		rhs[rank], rhs[pivot] = rhs[pivot], rhs[rank]
		inv := gf256.Inv(mat[rank][col])
		for j := range mat[rank] {
			mat[rank][j] = gf256.Mul(mat[rank][j], inv)
		}
		gf256.MulSliceSet(inv, append([]byte(nil), rhs[rank]...), rhs[rank])
		for r := 0; r < rows; r++ {
			if r == rank || mat[r][col] == 0 {
				continue
			}
			f := mat[r][col]
			for j := range mat[r] {
				mat[r][j] ^= gf256.Mul(f, mat[rank][j])
			}
			gf256.MulSlice(f, rhs[rank], rhs[r])
		}
		rank++
	}
	out := make([][]byte, unknowns)
	for j := 0; j < unknowns; j++ {
		// After full elimination, row j has a 1 in column j.
		out[j] = make([]byte, size)
		copy(out[j], rhs[j])
	}
	return out, nil
}

func sameSet(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[int]bool, len(a))
	for _, v := range a {
		seen[v] = true
	}
	for _, v := range b {
		if !seen[v] {
			return false
		}
	}
	return true
}
