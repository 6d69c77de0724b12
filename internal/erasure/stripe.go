package erasure

import "fmt"

// SplitStripes divides a byte stream into stripes of k native blocks of
// blockSize bytes each, zero-padding the tail block of the final stripe.
// It returns the native blocks grouped per stripe; full blocks are views of
// data, as SplitStripe describes.
//
// This mirrors HDFS-RAID, which groups a file's block stream into groups of
// k blocks and encodes each group independently.
func SplitStripes(data []byte, k, blockSize int) ([][][]byte, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrInvalidParams, k)
	}
	if blockSize <= 0 {
		return nil, fmt.Errorf("erasure: blockSize must be positive, got %d", blockSize)
	}
	if len(data) == 0 {
		return nil, nil
	}
	stripes := make([][][]byte, NumStripes(len(data), k, blockSize))
	for s := range stripes {
		stripes[s] = SplitStripe(data, s, k, blockSize)
	}
	return stripes, nil
}

// NumStripes returns how many stripes of k blocks of blockSize bytes a
// stream of size bytes occupies. k and blockSize must be positive.
func NumStripes(size, k, blockSize int) int {
	stripeSize := k * blockSize
	return (size + stripeSize - 1) / stripeSize
}

// SplitStripe returns the k native blocks of stripe s of data: one stripe
// of SplitStripes' result, for callers that split and encode stripe by
// stripe. A full block is a view of data, its capacity clipped to the block
// so that an append cannot reach the next one; the caller must not modify
// data while the blocks are in use. A short tail block, and every block
// past the end of data, is a zero-padded copy. k and blockSize must be
// positive.
func SplitStripe(data []byte, s, k, blockSize int) [][]byte {
	blocks := make([][]byte, k)
	for b := range blocks {
		lo := min((s*k+b)*blockSize, len(data))
		if hi := lo + blockSize; hi <= len(data) {
			blocks[b] = data[lo:hi:hi]
			continue
		}
		blk := make([]byte, blockSize)
		copy(blk, data[lo:])
		blocks[b] = blk
	}
	return blocks
}

// JoinStripes is the inverse of SplitStripes: it concatenates the native
// blocks of all stripes and truncates to origLen bytes.
func JoinStripes(stripes [][][]byte, origLen int) ([]byte, error) {
	out := make([]byte, 0, origLen)
	for _, blocks := range stripes {
		for _, b := range blocks {
			out = append(out, b...)
		}
	}
	if origLen > len(out) {
		return nil, fmt.Errorf("erasure: origLen %d exceeds available %d bytes", origLen, len(out))
	}
	return out[:origLen], nil
}

// BlockID identifies one block within an erasure-coded file: the stripe it
// belongs to and its index within the stripe (indices [0, k) are native
// blocks, [k, n) are parity blocks).
type BlockID struct {
	Stripe int
	Index  int
}

// IsParity reports whether the block is a parity block under code c.
func (b BlockID) IsParity(k int) bool { return b.Index >= k }

// String formats as "B{stripe,index}" for native or "P{stripe,index-k}"
// notation used in the paper's figures when k is unknown; plain form here.
func (b BlockID) String() string {
	return fmt.Sprintf("blk(s%d,i%d)", b.Stripe, b.Index)
}
