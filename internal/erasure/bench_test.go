package erasure

import "testing"

// benchShard is the block size the codec benchmarks run on.
const benchShard = 64 * 1024

func benchNative(k, size int) [][]byte {
	native := make([][]byte, k)
	for i := range native {
		native[i] = make([]byte, size)
		fillShard(native[i], byte(i+1))
	}
	return native
}

// BenchmarkEncode measures full-stripe parity generation for RS(14,10).
func BenchmarkEncode(b *testing.B) {
	code := MustNew(14, 10)
	native := benchNative(10, benchShard)
	b.SetBytes(int64(10 * benchShard))
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(native); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstructBlock measures a single degraded-read decode: RS(14,10)
// losing a 64 KiB data block (general coefficients), RS(12,10) losing a
// 1 MiB one (the chunked path), and the LRC(12,2,2) local-group repair of a
// 64 KiB block (pure XOR).
func BenchmarkReconstructBlock(b *testing.B) {
	code := MustNew(14, 10)
	native := benchNative(10, benchShard)
	stripe, err := code.EncodeStripe(native)
	if err != nil {
		b.Fatal(err)
	}
	srcIdx := make([]int, 0, 10)
	sources := make([][]byte, 0, 10)
	for i := 1; i <= 10; i++ {
		srcIdx = append(srcIdx, i)
		sources = append(sources, stripe[i])
	}
	b.Run("rs", func(b *testing.B) {
		b.SetBytes(int64(10 * benchShard))
		for i := 0; i < b.N; i++ {
			if _, err := code.ReconstructBlock(0, srcIdx, sources); err != nil {
				b.Fatal(err)
			}
		}
	})

	// 1 MiB blocks are above chunkParallelMin, so -cpu 1,2 compares one
	// serial MulAddSlices pass with the two-goroutine chunking (measured on
	// the 2-vCPU sandbox: 0.83-1.16 ms serial, 0.73-0.80 ms chunked).
	big := MustNew(12, 10)
	bigStripe, err := big.EncodeStripe(benchNative(10, 1<<20))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("rs-1MiB", func(b *testing.B) {
		b.SetBytes(10 << 20)
		for i := 0; i < b.N; i++ {
			if _, err := big.ReconstructBlock(0, srcIdx, bigStripe[1:11]); err != nil {
				b.Fatal(err)
			}
		}
	})

	lrc := MustNewLRC(12, 2, 2)
	data := benchNative(12, benchShard)
	lstripe, err := lrc.EncodeStripe(data)
	if err != nil {
		b.Fatal(err)
	}
	group, ok := lrc.LocalRepairGroup(2)
	if !ok {
		b.Fatal("no local group")
	}
	lsources := make([][]byte, len(group))
	for i, idx := range group {
		lsources[i] = lstripe[idx]
	}
	b.Run("lrc-local", func(b *testing.B) {
		b.SetBytes(int64(len(group) * benchShard))
		for i := 0; i < b.N; i++ {
			if _, err := lrc.ReconstructBlock(2, group, lsources); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoefficients measures the half of a degraded read that does not
// depend on the block size: solving for the RS(14,10) decode weights.
func BenchmarkCoefficients(b *testing.B) {
	code := MustNew(14, 10)
	srcIdx := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for i := 0; i < b.N; i++ {
		if _, err := code.coefficients(0, srcIdx); err != nil {
			b.Fatal(err)
		}
	}
}
