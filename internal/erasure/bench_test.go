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

// BenchmarkReconstructBlock measures a single degraded-read decode of a
// 64 KiB block: RS(14,10) losing a data block (general coefficients), and
// the LRC(12,2,2) local-group repair (pure XOR).
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
