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
// losing a 64 KiB data block (general coefficients), RS(12,10) losing one
// of 128 KiB to 1 MiB (either side of the chunking threshold), and the
// LRC(12,2,2) local-group repair of a 64 KiB block (pure XOR).
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

	// The sizes around chunkParallelMin: -cpu 1,2 compares one serial
	// MulAddSlices pass with the two-goroutine chunking wherever the size
	// is at or above the constant (CHANGES.md records the crossover
	// measured on a 2-vCPU host).
	big := MustNew(12, 10)
	for _, sz := range []struct {
		name string
		size int
	}{{"rs-128KiB", 128 << 10}, {"rs-256KiB", 256 << 10}, {"rs-512KiB", 512 << 10}, {"rs-1MiB", 1 << 20}} {
		bigStripe, err := big.EncodeStripe(benchNative(10, sz.size))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sz.name, func(b *testing.B) {
			b.SetBytes(int64(10 * sz.size))
			for i := 0; i < b.N; i++ {
				if _, err := big.ReconstructBlock(0, srcIdx, bigStripe[1:11]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	lrc := mustNewLRC(12, 2, 2)
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
