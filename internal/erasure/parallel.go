package erasure

import (
	"runtime"
	"sync"
)

// chunkParallelMin is the shard size below which single-block
// reconstruction stays serial: goroutine fan-out costs more than it saves
// on small blocks. 1 MiB is the smallest size at which two workers beat
// one in every run of BenchmarkReconstructBlock -cpu 1,2 (CHANGES.md
// records the crossover).
const chunkParallelMin = 1 << 20

// reconstructWorkers returns how many workers a reconstruction over shards
// of the given size should use: 1 (serial) for small shards or single-CPU
// hosts, else GOMAXPROCS.
func reconstructWorkers(size int) int {
	if size < chunkParallelMin {
		return 1
	}
	return runtime.GOMAXPROCS(0)
}

// forEachChunk splits [0, size) into at most `workers` contiguous chunks
// (256-byte aligned, so every chunk but the last is whole steps of the
// fused GF kernel) and runs fn on each concurrently. fn must write only
// within its [lo, hi) chunk. Because the chunks are disjoint and the GF
// arithmetic is positionwise, the result is byte-identical to fn(0, size):
// parallelism changes scheduling, never output. With workers <= 1 it
// degrades to a plain serial call.
func forEachChunk(size, workers int, fn func(lo, hi int)) {
	if size <= 0 {
		return
	}
	if workers > size {
		workers = size
	}
	if workers <= 1 {
		fn(0, size)
		return
	}
	chunk := (size + workers - 1) / workers
	chunk = (chunk + 255) &^ 255
	var wg sync.WaitGroup
	for lo := 0; lo < size; lo += chunk {
		hi := min(lo+chunk, size)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// subSlices returns views of every shard restricted to [lo, hi); the
// chunked reconstruction kernels hand these to gf256.MulAddSlices.
func subSlices(srcs [][]byte, lo, hi int) [][]byte {
	out := make([][]byte, len(srcs))
	for j, s := range srcs {
		out[j] = s[lo:hi]
	}
	return out
}
