package dfs

import (
	"bytes"
	"testing"

	"degradedfirst/internal/erasure"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
)

// TestParallelWriteMatchesSerial writes the same file through a serial FS
// and a parallel FS (explicit worker count > 1 so the goroutine pool runs
// even on single-CPU hosts, and so the CI -race run exercises it). Every
// stored block — native and parity, every stripe — must be byte-identical.
func TestParallelWriteMatchesSerial(t *testing.T) {
	data := makeData(64 * 4 * 9) // 9 stripes of k=4

	build := func(parallelism int) *FS {
		fs, err := New(testCluster(), erasure.MustNew(6, 4), 64, nil, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		fs.encodeParallelism = parallelism
		if _, err := fs.Write("f", data); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	serial := build(1)
	for _, workers := range []int{2, 4, 16} {
		parallel := build(workers)
		sf, _ := serial.File("f")
		pf, _ := parallel.File("f")
		if sf.NumStripes() != pf.NumStripes() {
			t.Fatalf("workers=%d: stripe count diverged", workers)
		}
		for s := 0; s < sf.NumStripes(); s++ {
			for i := 0; i < 6; i++ {
				b := erasure.BlockID{Stripe: s, Index: i}
				want, err := serial.ReadBlockUnsafe("f", b)
				if err != nil {
					t.Fatal(err)
				}
				got, err := parallel.ReadBlockUnsafe("f", b)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: block %v differs from serial encode", workers, b)
				}
			}
		}
	}
}

// tailShapes are file sizes, for k=4 and 64-byte blocks, that end the last
// stripe in each way Write has to pad.
var tailShapes = []int{
	64*4*2 + 10,       // short last block, 3 blocks missing
	64*4*2 + 64,       // short last stripe, blocks whole
	64*4*2 + 64*2 + 1, // both
	1,
}

// TestWritePadsLikeSplitStripes writes files that end in a short block, in
// a short stripe (whole blocks missing) and in both, and checks that Write,
// which splits stripe by stripe inside its encode workers, stores exactly
// the native blocks of data zero-padded to whole stripes, with
// parity that encodes those padded blocks.
func TestWritePadsLikeSplitStripes(t *testing.T) {
	const k, blockSize = 4, 64
	code := erasure.MustNew(6, k)
	for _, size := range tailShapes {
		for _, workers := range []int{1, 3} {
			data := makeData(size)
			// The reference split: data zero-padded to whole stripes.
			padded := make([]byte, erasure.NumStripes(size, k, blockSize)*k*blockSize)
			copy(padded, data)
			fs, err := New(testCluster(), code, blockSize, nil, stats.NewRNG(1))
			if err != nil {
				t.Fatal(err)
			}
			fs.encodeParallelism = workers
			f, err := fs.Write("f", data)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(padded) / (k * blockSize); f.NumStripes() != want {
				t.Fatalf("size=%d: %d stripes, want %d", size, f.NumStripes(), want)
			}
			for s := range f.NumStripes() {
				for i := range k {
					off := (s*k + i) * blockSize
					if !bytes.Equal(f.blocks[s][i], padded[off:off+blockSize]) {
						t.Fatalf("size=%d workers=%d: native block (s%d,i%d) differs from the zero-padded split", size, workers, s, i)
					}
				}
				if ok, err := code.Verify(f.blocks[s]); err != nil || !ok {
					t.Fatalf("size=%d workers=%d: stripe %d parity does not encode its padded blocks (%v)", size, workers, s, err)
				}
			}
		}
	}
}

// TestWriteKeepsCallerBlocks checks Write's ownership contract on the
// tailShapes: every full native block is data itself at its offset,
// capacity clipped to the block, the short and missing blocks are
// zero-padded copies, and data is not modified.
func TestWriteKeepsCallerBlocks(t *testing.T) {
	const k, blockSize = 4, 64
	for _, size := range tailShapes {
		data := makeData(size)
		orig := bytes.Clone(data)
		fs, err := New(testCluster(), erasure.MustNew(6, k), blockSize, nil, stats.NewRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		fs.encodeParallelism = 3
		f, err := fs.Write("f", data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, orig) {
			t.Fatalf("size=%d: Write modified its input", size)
		}
		for s := range f.blocks {
			for i, blk := range f.blocks[s][:k] {
				off := (s*k + i) * blockSize
				if off+blockSize <= size {
					if aliased := &blk[0] == &data[off]; !aliased || cap(blk) != blockSize {
						t.Fatalf("size=%d: full block (s%d,i%d): aliases data[%d:] %v, cap %d, want true and %d", size, s, i, off, aliased, cap(blk), blockSize)
					}
					continue
				}
				tail := data[min(off, size):]
				if len(tail) > 0 && &blk[0] == &tail[0] {
					t.Fatalf("size=%d: short block (s%d,i%d) aliases data", size, s, i)
				}
				if !bytes.Equal(blk[:len(tail)], tail) || !bytes.Equal(blk[len(tail):], make([]byte, blockSize-len(tail))) {
					t.Fatalf("size=%d: block (s%d,i%d) is not data's tail zero-padded to %d bytes", size, s, i, blockSize)
				}
			}
		}
	}
}

// benchFS builds an FS over the paper's RS(14,10) with 64 KiB blocks and a
// written file large enough for several stripes.
func benchFS(b *testing.B, parallelism int) (*FS, *File) {
	b.Helper()
	c := topology.MustNew(topology.Config{Nodes: 20, Racks: 4, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
	fs, err := New(c, erasure.MustNew(14, 10), 64*1024, nil, stats.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	fs.encodeParallelism = parallelism
	data := make([]byte, 64*1024*10*4) // 4 stripes of k=10
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	f, err := fs.Write("bench", data)
	if err != nil {
		b.Fatal(err)
	}
	return fs, f
}

// BenchmarkEncodeWrite measures the full Write path (split + place +
// encode) at both parallelism settings.
func BenchmarkEncodeWrite(b *testing.B) {
	for _, bc := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			c := topology.MustNew(topology.Config{Nodes: 20, Racks: 4, MapSlotsPerNode: 4, ReduceSlotsPerNode: 1})
			data := make([]byte, 64*1024*10*4)
			for i := range data {
				data[i] = byte(i*31 + 7)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				fs, err := New(c, erasure.MustNew(14, 10), 64*1024, nil, stats.NewRNG(1))
				if err != nil {
					b.Fatal(err)
				}
				fs.encodeParallelism = bc.parallelism
				b.StartTimer()
				if _, err := fs.Write("bench", data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDegradedRead is the macro benchmark: a degraded read of one
// 64 KiB block through the full FS path (source selection + download plan
// + real Reed-Solomon decode).
func BenchmarkDegradedRead(b *testing.B) {
	fs, f := benchFS(b, 0)
	blk := erasure.BlockID{Stripe: 0, Index: 0}
	fs.Cluster().FailNode(f.Placement.Holder(blk))
	rng := stats.NewRNG(9)
	b.SetBytes(64 * 1024 * 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := fs.DegradedRead("bench", blk, 0, PreferSameRack, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepairBlock is the healer's commit of one lost 1 MiB RS(12,10)
// block: decode from ten sources plus the ground-truth check. Each
// iteration hands the block back to its failed holder so that the next
// one repairs it again.
func BenchmarkRepairBlock(b *testing.B) {
	fs, f, plan := repairFixture(b)
	bp := plan.Blocks[0]
	blk := erasure.BlockID{Stripe: 0, Index: bp.Index}
	failed := f.Placement.Holder(blk)
	b.SetBytes(int64(fs.BlockSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.RepairBlock(f.Name, blk, bp.Dest, bp.Sources); err != nil {
			b.Fatal(err)
		}
		f.Placement.Reassign(blk, failed)
	}
}
