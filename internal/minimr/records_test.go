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
	"strconv"
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

// naiveMapBlock is MapBlock's reference: each record appended to its
// partition as it is emitted, or, for a job with a combiner, the map
// output collected in a plain map first and the combiner run over its
// keys in sorted order.
func naiveMapBlock(job *Job, block []byte) (want [][][2]string, bytes []float64) {
	n := max(job.NumReducers, 1)
	want, bytes = make([][][2]string, n), make([]float64, n)
	part := func(k, v string) {
		p := 0
		if job.NumReducers > 0 {
			p = PartitionOf(k, job.NumReducers)
		}
		want[p] = append(want[p], [2]string{k, v})
		bytes[p] += float64(len(k) + len(v) + 2)
	}
	if job.Combine == nil {
		job.Map(block, part)
		return want, bytes
	}
	grouped := map[string][]string{}
	var keys []string
	job.Map(block, func(k, v string) {
		if _, ok := grouped[k]; !ok {
			keys = append(keys, k)
		}
		grouped[k] = append(grouped[k], v)
	})
	sort.Strings(keys)
	for _, k := range keys {
		job.Combine(k, grouped[k], part)
	}
	return want, bytes
}

// checkMapBlock fails t unless MapBlock's partitions and volumes are the
// naive reference's, record for record, and returns both.
func checkMapBlock(t *testing.T, name string, job *Job, block []byte) (parts []RecordBuf, sizes []float64, want [][][2]string) {
	t.Helper()
	parts, sizes = MapBlock(job, block)
	want, wantBytes := naiveMapBlock(job, block)
	if len(parts) != len(want) || !reflect.DeepEqual(sizes, wantBytes) {
		t.Fatalf("%s: %d parts with sizes %v, want %d with %v", name, len(parts), sizes, len(want), wantBytes)
	}
	for p := range parts {
		if got := records(t, parts[p]); !reflect.DeepEqual(got, want[p]) {
			t.Fatalf("%s part %d: got %q want %q", name, p, got, want[p])
		}
		if (parts[p] == nil) != (len(want[p]) == 0) {
			t.Fatalf("%s part %d: %d records, nil %v", name, p, len(want[p]), parts[p] == nil)
		}
	}
	return parts, sizes, want
}

// TestMapBlockMatchesNaivePartitioning checks the shared map-side
// function against the plain emit/combine/partition loop it replaced.
func TestMapBlockMatchesNaivePartitioning(t *testing.T) {
	block := []byte("the whale the ocean\na ship in the storm\nthe whale\n")
	mapOnly := WordCountJob("in", 0)
	mapOnly.Reduce, mapOnly.Combine = nil, nil
	jobs := []Job{mapOnly, WordCountJob("in", 1), WordCountJob("in", 3), WordCountJob("in", 8),
		GrepJob("in", "whale", 3), LineCountJob("in", 3)}
	for _, job := range jobs {
		name := fmt.Sprintf("%s numR=%d", job.Name, job.NumReducers)
		parts, sizes, want := checkMapBlock(t, name, &job, block)
		for p := range parts {
			// Short keys and values: the packed size is the shuffle volume.
			if float64(len(parts[p])) != sizes[p] {
				t.Fatalf("%s part %d: %d packed bytes, %v accounted", name, p, len(parts[p]), sizes[p])
			}
		}
		// A map-only job's one buffer is the naive packing, byte for byte.
		if job.NumReducers == 0 {
			var naive RecordBuf
			job.Map(block, func(k, v string) { naive = naive.Append(k, v) })
			if !bytes.Equal(parts[0], naive) {
				t.Fatalf("map-only buffer %q, naive packing %q", parts[0], naive)
			}
		}
		// An empty partition is nil (checkMapBlock), and one exists.
		if job.NumReducers == 8 && !slices.ContainsFunc(parts, func(p RecordBuf) bool { return p == nil }) {
			t.Fatal("no empty partition at numR=8: the nil check checked nothing")
		}
		// The partitions share one backing array: each is capacity-clipped,
		// so appending to one leaves its neighbour alone.
		for p := 0; p+1 < len(parts); p++ {
			_ = append(parts[p], "scribble"...)
			if got := records(t, parts[p+1]); !reflect.DeepEqual(got, want[p+1]) {
				t.Fatalf("%s: appending to part %d changed part %d to %v", name, p, p+1, got)
			}
		}

		// A second call must not disturb the first call's buffers (the
		// scratch is reused, the result is not).
		again, _ := MapBlock(&job, []byte("storm storm storm\n"))
		for p := range parts {
			if got := records(t, parts[p]); !reflect.DeepEqual(got, want[p]) {
				t.Fatalf("%s part %d changed after a later MapBlock (%d bytes there)", name, p, len(again[0]))
			}
		}
	}
	// The combiner sums WordCount's counts: one record per distinct word.
	job := WordCountJob("in", 1)
	parts, _ := MapBlock(&job, block)
	counts := map[string]string{}
	if err := parts[0].MergeInto(counts); err != nil || len(counts) != 7 || counts["the"] != "4" {
		t.Fatalf("combined WordCount records %v (%v), want 7 words with the=4", counts, err)
	}
}

// TestMapBlockScratchReuse: whatever a large block leaves in the pooled
// scratch — its grouping's keys, counts and values — changes nothing a
// later, smaller block maps to.
func TestMapBlockScratchReuse(t *testing.T) {
	large := testbedBlocks(t, 1)[0]
	small := []byte("storm ship storm\nthe whale\x00\x00")
	for _, job := range []Job{WordCountJob("in", 8), LineCountJob("in", 8)} {
		runtime.GC()
		runtime.GC() // the pool's victim cache too: the next Get makes a new scratch
		fresh, freshBytes := MapBlock(&job, small)
		for range 3 {
			MapBlock(&job, large)
			again, againBytes := MapBlock(&job, small)
			if !reflect.DeepEqual(again, fresh) || !reflect.DeepEqual(againBytes, freshBytes) {
				t.Fatalf("%s: after a large block, %q (%v); on a new scratch, %q (%v)",
					job.Name, again, againBytes, fresh, freshBytes)
			}
		}
	}
}

// TestReduceLaneGroupingReuse is TestMapBlockScratchReuse's reduce-side
// twin: whatever a large reduce or a failed one leaves in the reduce
// lane's reused grouping changes nothing a later, smaller reduce gives.
func TestReduceLaneGroupingReuse(t *testing.T) {
	job := LineCountJob("in", 8)
	var large []RecordBuf
	for _, block := range testbedBlocks(t, 4) {
		parts, _ := MapBlock(&job, block)
		large = append(large, parts[0])
	}
	small := []RecordBuf{
		RecordBuf(nil).Append("storm", "1").Append("ship", "2").Append("storm", "3"),
		nil,
		RecordBuf(nil).Append("a whale", "1").Append("ship", "1"),
	}
	bad := RecordBuf(nil).Append("ship", "1")
	bad = bad[:len(bad)-1]
	fresh, err := reduceTask(new(grouping), &job, small)
	if err != nil {
		t.Fatal(err)
	}
	if want := []record{{"a whale", "1"}, {"ship", "3"}, {"storm", "4"}}; !reflect.DeepEqual(fresh, want) {
		t.Fatalf("small reduce on a fresh grouping gave %v, want %v", fresh, want)
	}
	var lane grouping
	for _, first := range []struct {
		name string
		bufs []RecordBuf
		fail bool
	}{
		{"a large reduce", large, false},
		{"a malformed last buffer", append(slices.Clone(small), bad), true},
		{"a large reduce again", large, false},
	} {
		if _, err := reduceTask(&lane, &job, first.bufs); (err != nil) != first.fail {
			t.Fatalf("%s: err %v", first.name, err)
		}
		if again, err := reduceTask(&lane, &job, small); err != nil || !reflect.DeepEqual(again, fresh) {
			t.Fatalf("after %s, the reused grouping gave %v (%v), a fresh one %v", first.name, again, err, fresh)
		}
	}
}

// FuzzMapBlockCombine holds MapBlock to the naive reference over
// arbitrary blocks and reducer counts, for WordCount and for a combiner
// whose output shows the order it saw each key's values in and emits
// more records than it got keys.
func FuzzMapBlockCombine(f *testing.F) {
	f.Add([]byte("the whale the ocean\na ship in the storm\nthe whale\n"), uint8(3), false)
	f.Add([]byte("the whale the ocean\na ship in the storm\nthe whale\n"), uint8(8), true)
	f.Add([]byte{}, uint8(0), true)
	f.Add([]byte("a a a\x00\xff b \xe2\x80\x83 b\n\n"), uint8(1), true)
	f.Fuzz(func(t *testing.T, block []byte, numR uint8, join bool) {
		job := WordCountJob("in", int(numR%9)+1)
		if join {
			job.Map = func(b []byte, emit func(k, v string)) {
				i := 0
				eachField(b, func(w []byte) {
					emit(string(w), strconv.Itoa(i))
					i++
				})
			}
			job.Combine = func(k string, vs []string, emit func(k, v string)) {
				emit(k, strings.Join(vs, ","))
				if len(vs) > 1 {
					emit(k+"+", "")
				}
			}
		}
		checkMapBlock(t, fmt.Sprintf("numR=%d join=%v", job.NumReducers, join), &job, block)
	})
}

// TestMapBlockConcurrent: a TCP worker maps blocks on several goroutines
// at once, all drawing on the pooled scratch and, for a combining job,
// its grouping; each must get what a lone call gets.
func TestMapBlockConcurrent(t *testing.T) {
	blocks := [][]byte{[]byte("a\nb\nc\n"), []byte("the whale\n\x00\x00"), []byte("storm\nship\nstorm\n"), nil}
	for _, job := range []Job{LineCountJob("in", 8), WordCountJob("in", 8)} {
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
						t.Errorf("%s: block %d mapped concurrently to %q, alone to %q", job.Name, b, got, want[b])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
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

// TestReduceBufsSortsKeysBytewise: reduce's sort compares eight-byte
// key prefixes first, so keys that tie there, or differ only in NUL
// padding or length, must still come out in strings.Compare order.
func TestReduceBufsSortsKeysBytewise(t *testing.T) {
	want := []string{"", "\x00", "\x00\x00", "a", "a\x00", "abcdefgg\xff", "abcdefgh", "abcdefgh\x00",
		"abcdefghi", "abcdefgi", "b", "\xff\xff\xff\xff\xff\xff\xff\xff\x00"}
	var buf RecordBuf
	for _, i := range stats.NewRNG(5).PickK(nil, len(want), len(want)) {
		buf = buf.Append(want[i], "1")
	}
	var got []string
	if err := ReduceBufs(sumReducer, []RecordBuf{buf}, func(k, _ string) { got = append(got, k) }); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("keys reduced in order %q, want %q", got, want)
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
// quarter of its size — may allocate at most 28 bytes per byte of input.
// It measures 19.5–23.5 at GOMAXPROCS 1–4. Each reverted piece measures:
//   - a grouping built per reducer, where the reduce lane now reuses the
//     one it owns: 33–36.5, which fails the budget;
//   - WordCount's combiner packing the map output into a raw buffer and
//     decoding it again, where it now files each record into the pooled
//     scratch's grouping as the map emits it: 19.5–21, which passes. That
//     path costs time, not bytes; BenchmarkMapBlock/WordCount shows it.
//
// Earlier shapes measured far above: 33.7 with both pieces reverted, the
// KeyValue-slice shuffle about 280 and, before the combiner, doubling
// buffers with bytes.Fields and bytes.Split about 99.
//
// Under -race the mix measures 39–48.5, because the race build's
// sync.Pool drops items on purpose and MapBlock's scratch is pooled, so
// the budget there is 58. A grouping per reducer (59.5–60) only just
// fails it; the plain-build run, which CI also makes, is the one that
// pins it.
func TestTestbedMixAllocBudget(t *testing.T) {
	budget := 28.0
	if raceBuild() {
		budget = 58
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

// testbedBlocks cuts n blocks of the testbed corpus.
func testbedBlocks(b testing.TB, n int) [][]byte {
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
	for _, job := range testbedMix() {
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
// blocks on a fresh grouping, as a TCP worker does.
func BenchmarkReduceBufs(b *testing.B) {
	benchReduce(b, func(job *Job, bufs []RecordBuf) error {
		return ReduceBufs(job.Reduce, bufs, func(string, string) {})
	})
}

// BenchmarkReduceLane is BenchmarkReduceBufs on the reduce lane's one
// grouping, reused for every reducer.
func BenchmarkReduceLane(b *testing.B) {
	var g grouping
	benchReduce(b, func(job *Job, bufs []RecordBuf) error {
		_, err := reduceTask(&g, job, bufs)
		return err
	})
}

func benchReduce(b *testing.B, reduce func(*Job, []RecordBuf) error) {
	blocks := testbedBlocks(b, 16)
	for _, job := range testbedMix() {
		bufs := make([]RecordBuf, len(blocks))
		for i, block := range blocks {
			parts, _ := MapBlock(&job, block)
			bufs[i] = parts[0]
		}
		b.Run(job.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := reduce(&job, bufs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
