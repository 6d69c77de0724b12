// Package erasure implements systematic linear erasure codes over GF(2^8),
// in the style used by HDFS-RAID: k native blocks are encoded into n-k
// parity blocks. There is one codec, linear, driven by an n x k generator
// matrix; the code families differ only in the matrix they build. Code is
// (n, k) Reed-Solomon — any k of the n blocks of a stripe reconstruct all
// of them — and LRC adds local parities, so a single lost block is repaired
// from its local group instead of from k blocks.
package erasure

import (
	"errors"
	"fmt"

	"degradedfirst/internal/gf256"
)

// Errors returned by this package.
var (
	ErrInvalidParams = errors.New("erasure: invalid (n, k) parameters")
	// ErrTooFewShards: the available shards do not determine the requested
	// ones — fewer than k of an MDS code, or an LRC pattern they do not span.
	ErrTooFewShards      = errors.New("erasure: too few shards to reconstruct")
	ErrShardSizeMismatch = errors.New("erasure: shards have differing sizes")
	ErrShardCount        = errors.New("erasure: wrong number of shards")
)

// Coder is the interface shared by the Reed-Solomon Code and the LRC:
// everything the storage layer needs from an erasure code.
type Coder interface {
	// N is the stripe width; K the native (data) block count.
	N() int
	K() int
	// EncodeStripe returns all N shards for K data shards.
	EncodeStripe(data [][]byte) ([][]byte, error)
	// ReconstructBlock recovers one block from the given source shards
	// into a new slice; CompareBlock decodes it only to compare it with a
	// stored copy, returning the first differing byte or -1, so a caller
	// checking a repair needs no buffer. Neither modifies the sources.
	ReconstructBlock(idx int, srcIdx []int, sources [][]byte) ([]byte, error)
	CompareBlock(want []byte, idx int, srcIdx []int, sources [][]byte) (int, error)
	// Determines reports whether the blocks at srcIdx determine block idx:
	// whether ReconstructBlock can succeed on them.
	Determines(idx int, srcIdx []int) bool
}

// LocalRepairer is implemented by codes (like LRC) whose single-block
// repairs can read fewer than K blocks. The storage layer uses it to plan
// cheap degraded reads.
type LocalRepairer interface {
	// LocalRepairGroup returns the exact source set repairing block idx,
	// or ok=false when idx has no local group. The set is read-only.
	LocalRepairGroup(idx int) (sources []int, ok bool)
}

// Verify interface compliance.
var (
	_ Coder         = (*Code)(nil)
	_ Coder         = (*LRC)(nil)
	_ LocalRepairer = (*LRC)(nil)
)

// Code is an immutable (n, k) systematic Reed-Solomon code: a linear code
// whose generator makes any k blocks of a stripe determine all n (MDS). It
// is safe for concurrent use.
type Code struct {
	linear
}

// New returns an (n, k) code, 0 < k < n <= 256 (the field size). Its
// parity rows are a Vandermonde matrix made systematic: classic
// Reed-Solomon, as HDFS-RAID builds it.
func New(n, k int) (*Code, error) {
	if k <= 0 || n <= k || n > 256 {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrInvalidParams, n, k)
	}
	// Systematize: E = V * (topK(V))^-1 has the identity as its top k
	// rows; the n-k rows below them are the parity rows.
	topInv, err := gf256.Vandermonde(k, k).Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: systematizing Vandermonde: %w", err)
	}
	enc, err := gf256.Vandermonde(n, k).Mul(topInv)
	if err != nil {
		return nil, err
	}
	below := make([]int, n-k)
	for i := range below {
		below[i] = k + i
	}
	parity, err := enc.SubMatrix(below)
	if err != nil {
		return nil, err
	}
	return &Code{linear: newLinear(k, parity)}, nil
}

// MustNew is New but panics on error; for constant, known-good parameters.
func MustNew(n, k int) *Code {
	c, err := New(n, k)
	if err != nil {
		panic(fmt.Sprintf("erasure: MustNew(%d, %d): %v", n, k, err))
	}
	return c
}
