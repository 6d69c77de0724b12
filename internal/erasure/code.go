// Package erasure implements systematic (n, k) Reed-Solomon erasure codes
// over GF(2^8), in the style used by HDFS-RAID: k native blocks are encoded
// into n-k parity blocks, and any k of the n blocks of a stripe suffice to
// reconstruct all blocks.
package erasure

import (
	"bytes"
	"errors"
	"fmt"

	"degradedfirst/internal/gf256"
)

// Construction selects how the encoding matrix is built.
type Construction int

const (
	// VandermondeRS builds the encoding matrix from a Vandermonde matrix
	// transformed to systematic form (classic Reed-Solomon).
	VandermondeRS Construction = iota + 1
	// CauchyRS places a Cauchy matrix under an identity block
	// (Cauchy Reed-Solomon, Bloemer et al. 1995).
	CauchyRS
)

// String returns the construction name.
func (c Construction) String() string {
	switch c {
	case VandermondeRS:
		return "vandermonde"
	case CauchyRS:
		return "cauchy"
	default:
		return fmt.Sprintf("construction(%d)", int(c))
	}
}

// Errors returned by this package.
var (
	ErrInvalidParams     = errors.New("erasure: invalid (n, k) parameters")
	ErrTooFewShards      = errors.New("erasure: fewer than k shards available")
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
	// ReconstructBlock recovers one block from the given source shards.
	ReconstructBlock(idx int, srcIdx []int, sources [][]byte) ([]byte, error)
	// Verify checks a complete stripe's parity consistency.
	Verify(shards [][]byte) (bool, error)
}

// LocalRepairer is implemented by codes (like LRC) whose single-block
// repairs can read fewer than K blocks. The storage layer uses it to plan
// cheap degraded reads.
type LocalRepairer interface {
	// LocalRepairGroup returns the exact source set repairing block idx,
	// or ok=false when idx has no local group.
	LocalRepairGroup(idx int) (sources []int, ok bool)
}

// Verify interface compliance.
var (
	_ Coder         = (*Code)(nil)
	_ Coder         = (*LRC)(nil)
	_ LocalRepairer = (*LRC)(nil)
)

// Code is an immutable (n, k) systematic Reed-Solomon code. It is safe for
// concurrent use.
type Code struct {
	n, k int
	// enc is the n x k encoding matrix. Its top k rows form the identity,
	// so shards[0..k) are the native blocks verbatim.
	enc          *gf256.Matrix
	construction Construction
}

// Option configures New.
type Option func(*options)

type options struct {
	construction Construction
}

// WithConstruction selects the matrix construction (default VandermondeRS).
func WithConstruction(c Construction) Option {
	return func(o *options) { o.construction = c }
}

// New returns an (n, k) code. Requirements: 0 < k < n <= 256, and for the
// Cauchy construction n <= 256 as well (field size limit).
func New(n, k int, opts ...Option) (*Code, error) {
	o := options{construction: VandermondeRS}
	for _, opt := range opts {
		opt(&o)
	}
	if k <= 0 || n <= k || n > 256 {
		return nil, fmt.Errorf("%w: n=%d k=%d", ErrInvalidParams, n, k)
	}
	var enc *gf256.Matrix
	switch o.construction {
	case VandermondeRS:
		// Systematize: E = V * (topK(V))^-1 so the top k rows are identity.
		v := gf256.Vandermonde(n, k)
		topRows := make([]int, k)
		for i := range topRows {
			topRows[i] = i
		}
		top, err := v.SubMatrix(topRows)
		if err != nil {
			return nil, err
		}
		topInv, err := top.Invert()
		if err != nil {
			return nil, fmt.Errorf("erasure: systematizing Vandermonde: %w", err)
		}
		enc, err = v.Mul(topInv)
		if err != nil {
			return nil, err
		}
	case CauchyRS:
		enc = gf256.NewMatrix(n, k)
		for i := 0; i < k; i++ {
			enc.Set(i, i, 1)
		}
		cauchy := gf256.Cauchy(n-k, k)
		for i := 0; i < n-k; i++ {
			copy(enc.Row(k+i), cauchy.Row(i))
		}
	default:
		return nil, fmt.Errorf("erasure: unknown construction %v", o.construction)
	}
	return &Code{n: n, k: k, enc: enc, construction: o.construction}, nil
}

// MustNew is New but panics on error; for constant, known-good parameters.
func MustNew(n, k int, opts ...Option) *Code {
	c, err := New(n, k, opts...)
	if err != nil {
		panic(fmt.Sprintf("erasure: MustNew(%d, %d): %v", n, k, err))
	}
	return c
}

// N returns the stripe width (native + parity blocks).
func (c *Code) N() int { return c.n }

// K returns the number of native blocks per stripe.
func (c *Code) K() int { return c.k }

// ParityShards returns n - k.
func (c *Code) ParityShards() int { return c.n - c.k }

// Construction returns the matrix construction in use.
func (c *Code) Construction() Construction { return c.construction }

// String implements fmt.Stringer, e.g. "RS(12,10)/vandermonde".
func (c *Code) String() string {
	return fmt.Sprintf("RS(%d,%d)/%s", c.n, c.k, c.construction)
}

// StorageOverhead returns the redundancy overhead (n-k)/k, e.g. 0.2 for
// (12,10). 3-way replication corresponds to 2.0.
func (c *Code) StorageOverhead() float64 {
	return float64(c.n-c.k) / float64(c.k)
}

// Encode computes the n-k parity shards for k equal-length native shards.
// The native shards are not modified.
func (c *Code) Encode(native [][]byte) ([][]byte, error) {
	if err := c.checkShards(native, c.k); err != nil {
		return nil, err
	}
	size := len(native[0])
	parity := make([][]byte, c.n-c.k)
	for i := range parity {
		parity[i] = make([]byte, size)
		gf256.MulAddSlices(c.enc.Row(c.k+i), native, parity[i])
	}
	return parity, nil
}

// EncodeStripe returns all n shards of a stripe: the k native shards
// (aliasing the inputs) followed by freshly allocated parity shards.
func (c *Code) EncodeStripe(native [][]byte) ([][]byte, error) {
	parity, err := c.Encode(native)
	if err != nil {
		return nil, err
	}
	stripe := make([][]byte, 0, c.n)
	stripe = append(stripe, native...)
	stripe = append(stripe, parity...)
	return stripe, nil
}

// Reconstruct fills in the missing shards of a stripe in place. shards must
// have length n; missing shards are nil entries. At least k shards must be
// present. On success every entry of shards is non-nil and consistent with
// the code.
func (c *Code) Reconstruct(shards [][]byte) error {
	if len(shards) != c.n {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	present := make([]int, 0, c.n)
	size := -1
	for i, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return ErrShardSizeMismatch
		}
		present = append(present, i)
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: have %d, need %d", ErrTooFewShards, len(present), c.k)
	}
	if len(present) == c.n {
		return nil // nothing missing
	}

	// Decode: pick the first k present shards, invert the corresponding
	// rows of the encoding matrix, recover the native shards, then re-encode
	// whatever else is missing.
	use := present[:c.k]
	sub, err := c.enc.SubMatrix(use)
	if err != nil {
		return err
	}
	dec, err := sub.Invert()
	if err != nil {
		return fmt.Errorf("erasure: decode matrix inversion: %w", err)
	}
	in := make([][]byte, c.k)
	for i, idx := range use {
		in[i] = shards[idx]
	}
	native := make([][]byte, c.k)
	needNativeDecode := false
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			needNativeDecode = true
		}
	}
	if needNativeDecode {
		out := make([][]byte, c.k)
		for i := range out {
			out[i] = make([]byte, size)
		}
		if err := dec.MulVec(in, out); err != nil {
			return err
		}
		for i := 0; i < c.k; i++ {
			if shards[i] == nil {
				shards[i] = out[i]
			}
			native[i] = shards[i]
		}
	} else {
		for i := 0; i < c.k; i++ {
			native[i] = shards[i]
		}
	}
	// Recompute any missing parity from the (now complete) native shards.
	for i := c.k; i < c.n; i++ {
		if shards[i] != nil {
			continue
		}
		p := make([]byte, size)
		gf256.MulAddSlices(c.enc.Row(i), native, p)
		shards[i] = p
	}
	return nil
}

// ReconstructBlock recovers only the shard at index idx from any k present
// shards, returning the reconstructed shard without mutating the stripe.
// This models a degraded read of a single lost block: the caller supplies
// the k downloaded shards, identified by sourceIdx.
func (c *Code) ReconstructBlock(idx int, sourceIdx []int, sources [][]byte) ([]byte, error) {
	if idx < 0 || idx >= c.n {
		return nil, fmt.Errorf("erasure: block index %d out of range [0,%d)", idx, c.n)
	}
	if len(sourceIdx) != c.k || len(sources) != c.k {
		return nil, fmt.Errorf("%w: degraded read needs exactly k=%d sources, got %d", ErrShardCount, c.k, len(sources))
	}
	size := len(sources[0])
	for i, s := range sources {
		if len(s) != size {
			return nil, ErrShardSizeMismatch
		}
		if sourceIdx[i] == idx {
			out := make([]byte, size)
			copy(out, s)
			return out, nil
		}
	}
	sub, err := c.enc.SubMatrix(sourceIdx)
	if err != nil {
		return nil, err
	}
	dec, err := sub.Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: degraded-read decode: %w", err)
	}
	// Row idx of enc * dec maps the chosen sources directly to shard idx.
	encRow, err := c.enc.SubMatrix([]int{idx})
	if err != nil {
		return nil, err
	}
	coeffs, err := encRow.Mul(dec)
	if err != nil {
		return nil, err
	}
	// The decode is positionwise (out[i] depends only on byte i of every
	// source), so large blocks are reconstructed in disjoint chunks across
	// a GOMAXPROCS-bounded set of workers — the degraded-read hot path of
	// the real-bytes engine. Output is byte-identical to the serial path.
	out := make([]byte, size)
	row := coeffs.Row(0)
	forEachChunk(size, reconstructWorkers(size), func(lo, hi int) {
		gf256.MulAddSlices(row, subSlices(sources, lo, hi), out[lo:hi])
	})
	return out, nil
}

// Verify reports whether a complete stripe is consistent: every parity shard
// equals the encoding of the native shards.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	if err := c.checkShards(shards, c.n); err != nil {
		return false, err
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

func (c *Code) checkShards(shards [][]byte, want int) error {
	if len(shards) != want {
		return fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), want)
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			return fmt.Errorf("erasure: shard %d is nil", i)
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
