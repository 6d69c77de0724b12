package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"degradedfirst/internal/gf256"
)

// linear is a systematic linear (n, k) block code over GF(2^8): block i of
// a stripe is row i of the n x k generator matrix applied to the k native
// blocks, and the top k rows are the identity, so blocks [0, k) are the
// native blocks verbatim. A code family is its generator and nothing else:
// linear owns every byte path — encode, single-block and whole-stripe
// reconstruction — and Code and LRC only build the matrix.
// It is immutable and safe for concurrent use.
type linear struct {
	n, k int
	gen  *gf256.Matrix
	// parity is gen's rows k..n-1, row-major: Encode's coefficients.
	parity []byte
}

// newLinear stacks the (n-k) x k parity rows under a k x k identity.
func newLinear(k int, parity *gf256.Matrix) linear {
	n := k + parity.Rows()
	gen := gf256.NewMatrix(n, k)
	for i := 0; i < k; i++ {
		gen.Set(i, i, 1)
	}
	var rows []byte
	for i := k; i < n; i++ {
		copy(gen.Row(i), parity.Row(i-k))
		rows = append(rows, gen.Row(i)...)
	}
	return linear{n: n, k: k, gen: gen, parity: rows}
}

// N returns the stripe width (native + parity blocks).
func (c *linear) N() int { return c.n }

// K returns the number of native blocks per stripe.
func (c *linear) K() int { return c.k }

// Encode computes the n-k parity shards for k equal-length native shards,
// in stripe order, in one pass over the native bytes for every four
// parity rows on the GFNI tier. The native shards are not modified.
func (c *linear) Encode(native [][]byte) ([][]byte, error) {
	size, err := checkShards(native, c.k, false)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.n-c.k)
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	gf256.MulSlices(c.parity, native, parity...)
	return parity, nil
}

// EncodeStripe returns all n shards of a stripe: the k native shards
// (aliasing the inputs) followed by freshly allocated parity shards.
func (c *linear) EncodeStripe(native [][]byte) ([][]byte, error) {
	parity, err := c.Encode(native)
	if err != nil {
		return nil, err
	}
	stripe := make([][]byte, 0, c.n)
	stripe = append(stripe, native...)
	stripe = append(stripe, parity...)
	return stripe, nil
}

// Determines reports whether the blocks at srcIdx determine block idx, that
// is whether ReconstructBlock would succeed on them. For an MDS code this
// is "any k distinct blocks"; for an LRC it depends on the pattern.
func (c *linear) Determines(idx int, srcIdx []int) bool {
	_, err := c.coefficients(idx, srcIdx)
	return err == nil
}

// coefficients returns weights x with sum_j x[j]*gen[srcIdx[j]] = gen[idx],
// so block idx is the same combination of the source blocks. It runs
// Gauss-Jordan elimination on the k x (len(srcIdx)+1) matrix whose columns
// are the sources' generator rows and then the target's, so its cost does
// not depend on the shard size. Sources the earlier ones already span get
// weight 0. ErrTooFewShards means the sources do not determine the block.
func (c *linear) coefficients(idx int, srcIdx []int) ([]byte, error) {
	if idx < 0 || idx >= c.n {
		return nil, fmt.Errorf("erasure: block index %d out of range [0,%d)", idx, c.n)
	}
	m := len(srcIdx)
	a := gf256.NewMatrix(c.k, m+1)
	for j, s := range srcIdx {
		if s < 0 || s >= c.n {
			return nil, fmt.Errorf("erasure: source index %d out of range [0,%d)", s, c.n)
		}
		for r, v := range c.gen.Row(s) {
			a.Set(r, j, v)
		}
	}
	for r, v := range c.gen.Row(idx) {
		a.Set(r, m, v)
	}
	// pivotRow[j] is the row holding source j's pivot, -1 for a free one.
	pivotRow := make([]int, m)
	rank := 0
	for j := range pivotRow {
		pivotRow[j] = -1
		p := rank
		for p < c.k && a.At(p, j) == 0 {
			p++
		}
		if p == c.k {
			continue
		}
		pr, rr := a.Row(p), a.Row(rank)
		if p != rank {
			for i := range pr {
				pr[i], rr[i] = rr[i], pr[i]
			}
		}
		if inv := gf256.Inv(rr[j]); inv != 1 {
			for i, v := range rr {
				rr[i] = gf256.Mul(v, inv)
			}
		}
		for r := 0; r < c.k; r++ {
			if f := a.At(r, j); r != rank && f != 0 {
				gf256.MulSlice(f, rr, a.Row(r))
			}
		}
		pivotRow[j] = rank
		rank++
	}
	// Rows below the rank are zero in every source column: the system is
	// consistent exactly when they are zero in the target column too.
	for r := rank; r < c.k; r++ {
		if a.At(r, m) != 0 {
			return nil, fmt.Errorf("%w: blocks %v do not determine block %d", ErrTooFewShards, srcIdx, idx)
		}
	}
	x := make([]byte, m)
	for j, r := range pivotRow {
		if r >= 0 {
			x[j] = a.At(r, m)
		}
	}
	return x, nil
}

// combine overwrites out with sum_j coeffs[j]*sources[j], writing each
// byte once without reading it. The sum is positionwise (out[i] depends
// only on byte i of every source), so large blocks are computed in
// disjoint chunks across a GOMAXPROCS-bounded set of workers — the
// degraded-read hot path of the real-bytes engine — byte-identical to one
// serial pass. Unit coefficients are plain XORs inside the kernel, which
// is all an LRC local repair consists of.
func combine(coeffs []byte, sources [][]byte, out []byte) {
	forEachChunk(len(out), reconstructWorkers(len(out)), func(lo, hi int) {
		gf256.MulSlices(coeffs, subSlices(sources, lo, hi), out[lo:hi])
	})
}

// ReconstructBlock recovers the shard at index idx from the given source
// shards, identified by srcIdx, into a new slice, without mutating them.
// This is a degraded read of a single lost block: the caller supplies what
// it downloaded — any set that determines the block, e.g. k blocks of an
// MDS code or an LRC local repair group — and gets ErrTooFewShards when it
// does not.
func (c *linear) ReconstructBlock(idx int, srcIdx []int, sources [][]byte) ([]byte, error) {
	coeffs, size, err := c.decodePlan(idx, srcIdx, sources, -1)
	if err != nil {
		return nil, err
	}
	dst := make([]byte, size)
	combine(coeffs, sources, dst)
	return dst, nil
}

// compareWindow is how much of a block CompareBlock decodes at a time:
// small enough that the rebuilt bytes are still in L1 when they are
// compared with the stored ones.
const compareWindow = 8 << 10

// CompareBlock decodes block idx from the sources as ReconstructBlock
// does and compares it with want, which must have the sources' length
// (ErrShardSizeMismatch otherwise). It returns the index of the first
// byte at which the two differ, or -1 when they agree. The decoded block
// is never stored whole: each compareWindow of it is rebuilt into a
// reused buffer and checked while it is in cache, so a repair's check
// reads want once and writes nothing. Neither want nor the sources are
// modified.
func (c *linear) CompareBlock(want []byte, idx int, srcIdx []int, sources [][]byte) (int, error) {
	coeffs, size, err := c.decodePlan(idx, srcIdx, sources, len(want))
	if err != nil {
		return 0, err
	}
	var mu sync.Mutex
	first := -1
	forEachChunk(size, reconstructWorkers(size), func(lo, hi int) {
		var buf [compareWindow]byte
		srcs := make([][]byte, len(sources))
		for wlo := lo; wlo < hi; wlo += compareWindow {
			whi := min(wlo+compareWindow, hi)
			for j, s := range sources {
				srcs[j] = s[wlo:whi]
			}
			got := buf[:whi-wlo]
			gf256.MulSlices(coeffs, srcs, got)
			if i := firstDiff(got, want[wlo:whi]); i >= 0 {
				mu.Lock()
				if first < 0 || wlo+i < first {
					first = wlo + i
				}
				mu.Unlock()
				return
			}
		}
	})
	return first, nil
}

// firstDiff returns the first index at which a and b, of one length,
// differ, or -1.
func firstDiff(a, b []byte) int {
	if bytes.Equal(a, b) {
		return -1
	}
	i := 0
	for a[i] == b[i] {
		i++
	}
	return i
}

// decodePlan checks a decode's sources — one per index, all of one
// non-zero length, which it returns, and wantLen too unless it is -1 —
// and returns the weights that combine them into block idx.
func (c *linear) decodePlan(idx int, srcIdx []int, sources [][]byte, wantLen int) (coeffs []byte, size int, err error) {
	if len(srcIdx) != len(sources) {
		return nil, 0, fmt.Errorf("%w: %d indices for %d sources", ErrShardCount, len(srcIdx), len(sources))
	}
	if size, err = checkShards(sources, len(srcIdx), false); err != nil {
		return nil, 0, err
	}
	if wantLen >= 0 && wantLen != size {
		return nil, 0, fmt.Errorf("%w: block to compare has %d bytes, shards %d", ErrShardSizeMismatch, wantLen, size)
	}
	if coeffs, err = c.coefficients(idx, srcIdx); err != nil {
		return nil, 0, err
	}
	return coeffs, size, nil
}

// checkShards is the one shape check: shards must have want entries, all of
// one non-zero length, which it returns. Nil entries (missing shards) are
// an error unless sparse, and a sparse list still needs one shard present.
func checkShards(shards [][]byte, want int, sparse bool) (size int, err error) {
	if len(shards) != want || want == 0 {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), want)
	}
	size = -1
	for i, s := range shards {
		switch {
		case s == nil && sparse:
		case s == nil:
			return 0, fmt.Errorf("erasure: shard %d is nil", i)
		case size == -1:
			size = len(s)
		case len(s) != size:
			return 0, ErrShardSizeMismatch
		}
	}
	switch size {
	case -1:
		return 0, fmt.Errorf("%w: stripe has no shards", ErrTooFewShards)
	case 0:
		return 0, errors.New("erasure: zero-length shards")
	}
	return size, nil
}
