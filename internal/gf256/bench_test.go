package gf256

import "testing"

// benchShard is the shard size the kernel benchmarks run on.
const benchShard = 64 * 1024

func benchData() (src, dst []byte) {
	src = make([]byte, benchShard)
	dst = make([]byte, benchShard)
	x := uint32(12345)
	for i := range src {
		x = x*1664525 + 1013904223
		src[i] = byte(x >> 8)
		dst[i] = byte(x >> 16)
	}
	return src, dst
}

// benchKernels runs fn as a sub-benchmark per multiply implementation.
func benchKernels(b *testing.B, fn func(b *testing.B)) {
	eachKernel(b, func(kernel string) { b.Run(kernel, fn) })
}

// BenchmarkMulSlice times a general coefficient and the c == 1 XOR on
// 64 KiB shards under both kernels.
func BenchmarkMulSlice(b *testing.B) {
	for _, tc := range []struct {
		name string
		c    byte
	}{{"general", 0xd7}, {"xor", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			benchKernels(b, func(b *testing.B) {
				src, dst := benchData()
				b.SetBytes(benchShard)
				for i := 0; i < b.N; i++ {
					MulSlice(tc.c, src, dst)
				}
			})
		})
	}
}

// BenchmarkMulAddSlices measures the fused k-source accumulation (one
// decode output block from k = 10 sources).
func BenchmarkMulAddSlices(b *testing.B) {
	const k = 10
	coeffs := make([]byte, k)
	srcs := make([][]byte, k)
	var dst []byte
	for j := 0; j < k; j++ {
		coeffs[j] = byte(2*j + 3)
		srcs[j], dst = benchData()
	}
	benchKernels(b, func(b *testing.B) {
		b.SetBytes(benchShard * k)
		for i := 0; i < b.N; i++ {
			MulAddSlices(coeffs, srcs, dst)
		}
	})
}
