package erasure

import (
	"bytes"
	"testing"

	"degradedfirst/internal/gf256"
)

func fillShard(b []byte, seed byte) {
	x := uint32(seed) + 9
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 8)
	}
}

func TestForEachChunkCoversRange(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 9, 100, 4096, 65536, 65537} {
		for _, workers := range []int{1, 2, 3, 4, 16, 1000} {
			covered := make([]byte, size)
			var counts [1]int
			forEachChunk(size, 1, func(lo, hi int) { counts[0]++; _ = lo; _ = hi })
			forEachChunk(size, workers, func(lo, hi int) {
				if lo%256 != 0 {
					t.Errorf("size=%d workers=%d: chunk starts at %d, not on a 256-byte step", size, workers, lo)
				}
				for i := lo; i < hi; i++ {
					covered[i]++
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("size=%d workers=%d: index %d covered %d times", size, workers, i, c)
				}
			}
		}
	}
}

// TestChunkedDecodeMatchesSerial drives the exact chunked kernel shape
// ReconstructBlock uses, with an explicit worker count > 1 so the
// goroutine fan-out runs even on single-CPU hosts (and under -race).
// The parallel result must be byte-identical to the serial kernel and to
// a per-byte gf256.Mul loop.
func TestChunkedDecodeMatchesSerial(t *testing.T) {
	const size = chunkParallelMin + 5 // a size ReconstructBlock chunks, odd tail
	const k = 10
	coeffs := make([]byte, k)
	sources := make([][]byte, k)
	for j := 0; j < k; j++ {
		coeffs[j] = byte(3*j + 2)
		sources[j] = make([]byte, size)
		fillShard(sources[j], byte(j))
	}
	serial := make([]byte, size)
	gf256.MulAddSlices(coeffs, sources, serial)
	ref := make([]byte, size)
	for j, src := range sources {
		for i, s := range src {
			ref[i] ^= gf256.Mul(coeffs[j], s)
		}
	}
	for _, workers := range []int{2, 3, 8} {
		parallel := make([]byte, size)
		forEachChunk(size, workers, func(lo, hi int) {
			gf256.MulAddSlices(coeffs, subSlices(sources, lo, hi), parallel[lo:hi])
		})
		if !bytes.Equal(parallel, serial) {
			t.Fatalf("workers=%d: chunked decode diverges from serial kernel", workers)
		}
		if !bytes.Equal(parallel, ref) {
			t.Fatalf("workers=%d: chunked decode diverges from per-byte Mul", workers)
		}
	}
}

// TestReconstructBlockLargeShard covers the size regime where
// ReconstructBlock and CompareBlock engage chunking (when GOMAXPROCS
// allows): the result must equal the original shard regardless.
func TestReconstructBlockLargeShard(t *testing.T) {
	code := MustNew(14, 10)
	size := chunkParallelMin // the smallest size that is chunked
	native := make([][]byte, 10)
	for i := range native {
		native[i] = make([]byte, size)
		fillShard(native[i], byte(i))
	}
	stripe, err := code.EncodeStripe(native)
	if err != nil {
		t.Fatal(err)
	}
	// Lose shard 3; use shards 0-2, 4-10 as sources.
	srcIdx := make([]int, 0, 10)
	sources := make([][]byte, 0, 10)
	for i := 0; i < 14 && len(srcIdx) < 10; i++ {
		if i == 3 {
			continue
		}
		srcIdx = append(srcIdx, i)
		sources = append(sources, stripe[i])
	}
	got, err := code.ReconstructBlock(3, srcIdx, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, native[3]) {
		t.Fatal("large-shard ReconstructBlock returned wrong bytes")
	}
	// CompareBlock names the lowest corrupted byte whichever chunk, and
	// which window of it, holds it.
	for _, corrupt := range [][]int{nil, {size - 1}, {size/2 + 9, size - 1}, {7, size/2 + 9}} {
		want := bytes.Clone(native[3])
		for _, i := range corrupt {
			want[i] ^= 0x10
		}
		wantAt := -1
		if len(corrupt) > 0 {
			wantAt = corrupt[0]
		}
		if at, err := code.CompareBlock(want, 3, srcIdx, sources); err != nil || at != wantAt {
			t.Fatalf("CompareBlock against a copy corrupted at %v = %d, %v; want %d", corrupt, at, err, wantAt)
		}
	}
}

func TestLRCLocalRepairLargeShard(t *testing.T) {
	lrc := mustNewLRC(12, 2, 2)
	size := chunkParallelMin // the smallest size that is chunked
	data := make([][]byte, 12)
	for i := range data {
		data[i] = make([]byte, size)
		fillShard(data[i], byte(i+40))
	}
	stripe, err := lrc.EncodeStripe(data)
	if err != nil {
		t.Fatal(err)
	}
	group, ok := lrc.LocalRepairGroup(2)
	if !ok {
		t.Fatal("data block 2 must have a local repair group")
	}
	sources := make([][]byte, len(group))
	for i, idx := range group {
		sources[i] = stripe[idx]
	}
	got, err := lrc.ReconstructBlock(2, group, sources)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[2]) {
		t.Fatal("large-shard LRC local repair returned wrong bytes")
	}
}
