package erasure

import "fmt"

// NumStripes returns how many stripes of k blocks of blockSize bytes a
// stream of size bytes occupies. k and blockSize must be positive.
func NumStripes(size, k, blockSize int) int {
	stripeSize := k * blockSize
	return (size + stripeSize - 1) / stripeSize
}

// SplitStripe returns the k native blocks of stripe s of data, as
// HDFS-RAID groups a file's block stream into groups of k blocks and
// encodes each group independently. A full block is a view of data, its
// capacity clipped to the block so that an append cannot reach the next
// one; the caller must not modify data while the blocks are in use. A
// short tail block, and every block past the end of data, is a zero-padded
// copy. k and blockSize must be positive.
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

// BlockID identifies one block within an erasure-coded file: the stripe it
// belongs to and its index within the stripe (indices [0, k) are native
// blocks, [k, n) are parity blocks).
type BlockID struct {
	Stripe int
	Index  int
}

// String formats as "B{stripe,index}" for native or "P{stripe,index-k}"
// notation used in the paper's figures when k is unknown; plain form here.
func (b BlockID) String() string {
	return fmt.Sprintf("blk(s%d,i%d)", b.Stripe, b.Index)
}
