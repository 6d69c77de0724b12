package minimr

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"degradedfirst/internal/sched"
	"degradedfirst/internal/stats"
	"degradedfirst/internal/topology"
	"degradedfirst/internal/workload"

	rt "degradedfirst/internal/runtime"
)

// records decodes a whole buffer (test helper).
func records(t testing.TB, b RecordBuf) [][2]string {
	t.Helper()
	var out [][2]string
	if err := b.Each(func(k, v []byte) { out = append(out, [2]string{string(k), string(v)}) }); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	return out
}

func TestRecordBufRoundTrip(t *testing.T) {
	want := [][2]string{{"a", "1"}, {"", ""}, {"whale", ""}, {"", "v"},
		{strings.Repeat("k", 200), strings.Repeat("v", 20000)}, {"a", "2"}}
	var b RecordBuf
	for _, r := range want {
		b = b.Append(r[0], r[1])
	}
	if got := records(t, b); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed records:\n got %v\nwant %v", got, want)
	}
	merged := map[string]string{}
	if err := b.MergeInto(merged); err != nil {
		t.Fatal(err)
	}
	if merged["a"] != "2" || len(merged) != 4 {
		t.Fatalf("MergeInto = %v, want last write to win over 4 keys", merged)
	}
}

func TestRecordBufRejectsCorruption(t *testing.T) {
	good := RecordBuf(nil).Append("key", "value")
	for name, b := range map[string]RecordBuf{
		"truncated value":     good[:len(good)-1],
		"missing value":       good[:4],
		"key past the end":    {200, 'a'},
		"length overflows":    {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"unterminated varint": {0x80},
	} {
		if err := b.Each(func(_, _ []byte) {}); err == nil {
			t.Errorf("%s: Each accepted it", name)
		}
		if err := b.MergeInto(map[string]string{}); err == nil {
			t.Errorf("%s: MergeInto accepted it", name)
		}
		err := ReduceBufs(sumReducer, []RecordBuf{good, b}, func(string, string) {})
		if err == nil {
			t.Errorf("%s: ReduceBufs accepted it", name)
		}
	}
}

// FuzzRecordBuf holds iteration over arbitrary bytes to "an error or a
// terminating walk that never reads outside the buffer", and holds
// append→iterate to a round trip.
func FuzzRecordBuf(f *testing.F) {
	f.Add([]byte{}, "k", "v")
	f.Add([]byte(RecordBuf(nil).Append("whale", "1").Append("", "")), "", "")
	f.Add([]byte{0x80, 0x80, 0x80}, "a", strings.Repeat("x", 300))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 'a'}, "key", "")
	f.Fuzz(func(t *testing.T, raw []byte, k, v string) {
		b := RecordBuf(raw)
		n, held := 0, 0
		err := b.Each(func(key, val []byte) {
			n++
			held += len(key) + len(val) + 2
		})
		if held > len(b) || (err == nil && held < len(b)-18*n) {
			t.Fatalf("%d records holding %d bytes out of a %d-byte buffer (err %v)", n, held, len(b), err)
		}

		// Whatever prefix decoded, appending to a well-formed buffer
		// round-trips.
		good := RecordBuf(nil).Append(v, k).Append(k, v)
		got := records(t, good)
		if want := [][2]string{{v, k}, {k, v}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %q want %q", got, want)
		}
	})
}

// TestPartitionOfMatchesFNV pins the inlined hash to hash/fnv: workers
// and the in-process engine must route every key identically, and so
// must every future version of this function.
func TestPartitionOfMatchesFNV(t *testing.T) {
	ref := func(key string, numR int) int {
		h := fnv.New32a()
		h.Write([]byte(key))
		return int(h.Sum32() % uint32(numR))
	}
	keys := []string{"", "a", "b", "the", "whale", "gutenberg", "\x00", "\xff\xfe", "héllo wörld",
		strings.Repeat("long line ", 40)}
	rng := stats.NewRNG(7)
	for i := 0; i < 10000; i++ {
		k := make([]byte, rng.Intn(40))
		for j := range k {
			k[j] = byte(rng.Intn(256))
		}
		keys = append(keys, string(k))
	}
	for _, k := range keys {
		for _, numR := range []int{1, 2, 7, 8, 64, 1000} {
			if got, want := PartitionOf(k, numR), ref(k, numR); got != want {
				t.Fatalf("PartitionOf(%q, %d) = %d, hash/fnv says %d", k, numR, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { PartitionOf("some intermediate key", 8) }); n != 0 {
		t.Fatalf("PartitionOf allocates %v times per call", n)
	}
}

// TestMapBlockMatchesNaivePartitioning checks the shared map-side
// function against the plain emit/partition loop it replaced.
func TestMapBlockMatchesNaivePartitioning(t *testing.T) {
	block := []byte("the whale the ocean\na ship in the storm\nthe whale\n")
	for _, numR := range []int{0, 1, 3, 8} {
		job := WordCountJob("in", numR)
		parts, sizes := MapBlock(&job, block)

		n := numR
		if n == 0 {
			n = 1
		}
		want := make([][][2]string, n)
		wantBytes := make([]float64, n)
		job.Map(block, func(k, v string) {
			p := 0
			if numR > 0 {
				p = PartitionOf(k, numR)
			}
			want[p] = append(want[p], [2]string{k, v})
			wantBytes[p] += float64(len(k) + len(v) + 2)
		})
		if len(parts) != n || !reflect.DeepEqual(sizes, wantBytes) {
			t.Fatalf("numR=%d: %d parts with sizes %v, want %d with %v", numR, len(parts), sizes, n, wantBytes)
		}
		for p := range parts {
			if got := records(t, parts[p]); !reflect.DeepEqual(got, want[p]) {
				t.Fatalf("numR=%d part %d: got %v want %v", numR, p, got, want[p])
			}
			// Short keys and values: the packed size is the shuffle volume.
			if float64(len(parts[p])) != sizes[p] {
				t.Fatalf("numR=%d part %d: %d packed bytes, %v accounted", numR, p, len(parts[p]), sizes[p])
			}
		}
		// A map-only job's one buffer is the naive packing, byte for byte.
		if numR == 0 {
			var naive RecordBuf
			job.Map(block, func(k, v string) { naive = naive.Append(k, v) })
			if !bytes.Equal(parts[0], naive) {
				t.Fatalf("map-only buffer %q, naive packing %q", parts[0], naive)
			}
		}
		// The partitions share one backing array: each is capacity-clipped,
		// so appending to one leaves its neighbour alone, and an empty one
		// is nil.
		empty := 0
		for p := range parts {
			if len(want[p]) == 0 {
				empty++
				if parts[p] != nil {
					t.Fatalf("numR=%d part %d is empty but not nil", numR, p)
				}
			}
		}
		if numR == 8 && empty == 0 {
			t.Fatal("no empty partition at numR=8: the nil check checked nothing")
		}
		for p := 0; p+1 < len(parts); p++ {
			_ = append(parts[p], "scribble"...)
			if got := records(t, parts[p+1]); !reflect.DeepEqual(got, want[p+1]) {
				t.Fatalf("numR=%d: appending to part %d changed part %d to %v", numR, p, p+1, got)
			}
		}

		// A second call must not disturb the first call's buffers (the
		// scratch is reused, the result is not).
		again, _ := MapBlock(&job, []byte("storm storm storm\n"))
		for p := range parts {
			if got := records(t, parts[p]); !reflect.DeepEqual(got, want[p]) {
				t.Fatalf("numR=%d part %d changed after a later MapBlock (%d bytes there)", numR, p, len(again[0]))
			}
		}
	}
}

// TestMapBlockConcurrent: a TCP worker maps blocks on several goroutines
// at once, all drawing on the pooled scratch; each must get what a lone
// call gets.
func TestMapBlockConcurrent(t *testing.T) {
	job := LineCountJob("in", 8)
	blocks := [][]byte{[]byte("a\nb\nc\n"), []byte("the whale\n\x00\x00"), []byte("storm\nship\nstorm\n"), nil}
	want := make([][]RecordBuf, len(blocks))
	for i, b := range blocks {
		want[i], _ = MapBlock(&job, b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b := (g + i) % len(blocks)
				if got, _ := MapBlock(&job, blocks[b]); !reflect.DeepEqual(got, want[b]) {
					t.Errorf("block %d mapped concurrently to %q, alone to %q", b, got, want[b])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestReduceBufsGroupsLikeAMap checks keys arrive sorted, each with its
// values in buffer order, whatever the interleaving.
func TestReduceBufsGroupsLikeAMap(t *testing.T) {
	rng := stats.NewRNG(3)
	var bufs []RecordBuf
	want := map[string][]string{}
	for b := 0; b < 5; b++ {
		var buf RecordBuf
		for i := 0; i < rng.Intn(200); i++ {
			k := fmt.Sprintf("key%d", rng.Intn(30))
			v := fmt.Sprintf("%d.%d", b, i)
			buf = buf.Append(k, v)
			want[k] = append(want[k], v)
		}
		bufs = append(bufs, buf)
	}
	bufs = append(bufs, nil) // an empty chunk is a chunk

	var keys []string
	got := map[string][]string{}
	err := ReduceBufs(func(k string, vs []string, emit func(k, v string)) {
		keys = append(keys, k)
		got[k] = append([]string(nil), vs...)
		vs = append(vs, "scribble") // must not reach the next key's values
		emit(k, "")
	}, bufs, func(string, string) {})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.StringsAreSorted(keys) || len(keys) != len(want) {
		t.Fatalf("keys not sorted or wrong count: %v", keys)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grouping differs:\n got %v\nwant %v", got, want)
	}
	if err := ReduceBufs(sumReducer, nil, func(string, string) { t.Fatal("emit with no input") }); err != nil {
		t.Fatal(err)
	}
}

// TestReduceBufsValidatesFirst pins an all-or-nothing property. The TCP
// worker reduces chunks that came off the wire, so a malformed record in
// the last of several buffers must fail the call before reduce runs even
// once, never after a half-reduce.
func TestReduceBufsValidatesFirst(t *testing.T) {
	good := RecordBuf(nil).Append("a", "1").Append("b", "1")
	bad := RecordBuf(nil).Append("c", "1")
	bad = bad[:len(bad)-1]
	err := ReduceBufs(func(k string, _ []string, _ func(k, v string)) {
		t.Fatalf("reduce ran for %q before the corrupt buffer was rejected", k)
	}, []RecordBuf{good, good, bad}, func(string, string) {})
	if err == nil {
		t.Fatal("ReduceBufs accepted a corrupt last buffer")
	}
}

// TestDeliverRejectsForeignChunk: a chunk that is not a record buffer is
// a wiring mistake and must fail the run, not lose its records.
func TestDeliverRejectsForeignChunk(t *testing.T) {
	b := &realBackend{bufs: [][][]RecordBuf{make([][]RecordBuf, 1)}}
	if err := b.Deliver(0, 0, topology.NodeID(0), rt.Chunk{Data: []string{"not", "a", "buffer"}}); err == nil {
		t.Fatal("Deliver accepted a chunk of the wrong type")
	}
	if err := b.Deliver(0, 0, topology.NodeID(0), rt.Chunk{}); err == nil {
		t.Fatal("Deliver accepted a chunk with no data")
	}
	buf := RecordBuf(nil).Append("k", "v")
	if err := b.Deliver(0, 0, topology.NodeID(0), rt.Chunk{Data: buf}); err != nil {
		t.Fatal(err)
	}
	if got := b.bufs[0][0]; len(got) != 1 || &got[0][0] != &buf[0] {
		t.Fatal("Deliver copied the chunk instead of keeping a reference")
	}
}

// TestTestbedMixAllocBudget is a count, not a timing: the testbed job
// mix under both schedulers — the benchmark's minimr-testbed shape at a
// quarter of its size — may allocate at most 58 bytes per byte of input.
// It measures 46–47.5 at GOMAXPROCS 1–4: each reducer's output is collected
// at its exact key count and the job's output map sized from the first
// reducer's, which pays for the collecting. Collected by append into an
// unsized map it measured 58–62. The KeyValue-slice shuffle allocated about 280, and
// packed buffers grown by doubling with bytes.Fields and bytes.Split in
// the map functions about 99. The budget is tight enough that either one
// coming back fails: bytes.Fields in WordCount alone measures about 61, and
// partitions grown by doubling alone about 63.5.
//
// Under -race the mix measures 70–75, because the race build's sync.Pool
// drops items on purpose and MapBlock's scratch is pooled, so the budget
// there is 90. It still fails on the doubling buffers with bytes.Fields
// and bytes.Split (105), but either regression alone (82–88, 70) can pass
// it; the plain-build run, which CI also makes, is the one that pins them.
func TestTestbedMixAllocBudget(t *testing.T) {
	budget := 58.0
	if raceBuild() {
		budget = 90
	}
	fs, corpus := testbedFS(t, 1)
	fs.Cluster().FailNode(3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, kind := range []sched.Kind{sched.KindLF, sched.KindEDF} {
		rep, err := Run(fs, testOpts(kind), testbedMix())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Outputs[0]) == 0 || len(rep.Outputs[2]) == 0 {
			t.Fatal("empty outputs")
		}
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(corpus))
	t.Logf("%.1f bytes allocated per input byte", perByte)
	if perByte > budget {
		t.Fatalf("testbed mix allocated %.1f bytes per input byte, budget %.0f", perByte, budget)
	}
	if !bytes.Contains(corpus, []byte("whale")) {
		t.Fatal("corpus has no grep hits; the mix is not the benchmark's")
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// benchJobs are the testbed's WordCount and LineCount at its reducer count.
func benchJobs() []Job {
	return []Job{WordCountJob("input.txt", 8), LineCountJob("input.txt", 8)}
}

// testbedBlocks cuts n blocks of the testbed corpus.
func testbedBlocks(b *testing.B, n int) [][]byte {
	corpus, err := workload.GenerateBlockAlignedCorpus(n, TestbedBlockSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = corpus[i*TestbedBlockSize : (i+1)*TestbedBlockSize]
	}
	return blocks
}

var _benchParts []RecordBuf

// BenchmarkMapBlock maps one testbed block into eight partitions.
func BenchmarkMapBlock(b *testing.B) {
	block := testbedBlocks(b, 1)[0]
	for _, job := range benchJobs() {
		b.Run(job.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(block)))
			for i := 0; i < b.N; i++ {
				_benchParts, _ = MapBlock(&job, block)
			}
		})
	}
}

// BenchmarkReduceBufs reduces one reducer's partitions of 16 testbed
// blocks.
func BenchmarkReduceBufs(b *testing.B) {
	blocks := testbedBlocks(b, 16)
	for _, job := range benchJobs() {
		bufs := make([]RecordBuf, len(blocks))
		for i, block := range blocks {
			parts, _ := MapBlock(&job, block)
			bufs[i] = parts[0]
		}
		b.Run(job.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ReduceBufs(job.Reduce, bufs, func(string, string) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
