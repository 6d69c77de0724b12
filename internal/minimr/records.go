package minimr

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// RecordBuf is the one representation records take between map and
// reduce: a pointer-free run of records, each a uvarint key length, the
// key, a uvarint value length, the value. The in-process engine hands
// buffers to reducers by reference and the distributed runtime writes
// them to sockets as they are. A buffer off the wire is untrusted: Each
// bounds-checks every length.
type RecordBuf []byte

// Append adds one record and returns the grown buffer (append-style).
func (b RecordBuf) Append(key, value string) RecordBuf {
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	b = binary.AppendUvarint(b, uint64(len(value)))
	return append(b, value...)
}

// Each calls fn with every record in order; key and value alias the
// buffer. It stops with an error at the first malformed record.
func (b RecordBuf) Each(fn func(key, value []byte)) error {
	for off := 0; off < len(b); {
		var kv [2][]byte
		for i := range kv {
			n, w := binary.Uvarint(b[off:])
			if w <= 0 || n > uint64(len(b)-off-w) {
				return fmt.Errorf("minimr: bad record field length at offset %d of %d", off, len(b))
			}
			kv[i] = b[off+w : off+w+int(n)]
			off += w + int(n)
		}
		fn(kv[0], kv[1])
	}
	return nil
}

// MergeInto writes every record into out, later records overwriting
// earlier ones with the same key.
func (b RecordBuf) MergeInto(out map[string]string) error {
	return b.Each(func(k, v []byte) { out[string(k)] = string(v) })
}

// mapScratch is MapBlock's staging area: the records to partition,
// packed once in emit order, with where each ends and which partition it
// joins, and for a job with a combiner the raw map output and its
// grouping. It is pooled, so a worker mapping blocks concurrently reuses
// it too.
type mapScratch struct {
	buf  RecordBuf
	recs []packedRecord
	raw  [1]RecordBuf // the map output the combiner groups
	g    grouping
}

type packedRecord struct {
	end  int
	part int32
}

var _mapScratch = sync.Pool{New: func() any { return new(mapScratch) }}

// MapBlock runs the job's map function over one input block and packs
// its output into one buffer per reducer (a single buffer for a map-only
// job), with each buffer's shuffle volume: len(key)+len(value)+2 per
// record. Both the in-process engine and the distributed workers
// partition through it, so the two produce identical shuffles.
//
// A job with a combiner has the map output grouped by key first, by the
// grouping the reducers use, and the combiner run over each key in
// sorted order, its values in emit order; what the combiner emits is
// partitioned in place of the map output, so each buffer holds its keys
// in sorted order. Every record to partition is packed once into a
// reused scratch buffer and then copied to its partition; the partitions
// share one exactly sized backing array, each capacity-clipped to its
// own length, and an empty one is nil.
func MapBlock(job *Job, block []byte) (parts []RecordBuf, bytes []float64) {
	n := max(job.NumReducers, 1)
	parts, bytes = make([]RecordBuf, n), make([]float64, n)
	s := _mapScratch.Get().(*mapScratch)
	defer _mapScratch.Put(s)
	s.buf, s.recs = s.buf[:0], s.recs[:0]
	sizes := make([]int, n) // packed bytes per partition
	pack := func(k, v string) {
		p := 0
		if n > 1 {
			p = PartitionOf(k, n)
		}
		start := len(s.buf)
		s.buf = s.buf.Append(k, v)
		s.recs = append(s.recs, packedRecord{end: len(s.buf), part: int32(p)})
		sizes[p] += len(s.buf) - start
		bytes[p] += float64(len(k) + len(v) + 2)
	}
	if job.Combine == nil {
		job.Map(block, pack)
	} else {
		s.raw[0] = s.raw[0][:0]
		job.Map(block, func(k, v string) { s.raw[0] = s.raw[0].Append(k, v) })
		if err := s.g.group(s.raw[:]); err != nil {
			// Only a record count past MaxInt32 fails a buffer packed here.
			panic(fmt.Sprintf("minimr: combining a map task of job %q: %v", job.Name, err))
		}
		s.g.reduce(job.Combine, pack)
	}

	backing, off := make([]byte, len(s.buf)), 0
	for p, size := range sizes {
		if size > 0 {
			parts[p] = backing[off : off : off+size]
			off += size
		}
	}
	start := 0
	for _, r := range s.recs {
		parts[r.part] = append(parts[r.part], s.buf[start:r.end]...)
		start = r.end
	}
	return parts, bytes
}

// ReduceBufs runs reduce over the records of bufs: keys in sorted order,
// each key's values in buffer order. A malformed record anywhere fails
// the call before reduce runs once.
func ReduceBufs(reduce Reducer, bufs []RecordBuf, emit func(key, value string)) error {
	var g grouping
	if err := g.group(bufs); err != nil {
		return err
	}
	g.reduce(reduce, emit)
	return nil
}

// grouping is records grouped by key, the one grouping both sides of the
// shuffle use: group g's key is keys[g] and its values are
// values[end[g]-counts[g]:end[g]], in buffer order. It is a counting
// sort — one pass numbers the distinct keys and counts their values, a
// second lays every value into one shared slice — so no per-key slice
// grows, and a reused grouping allocates only the strings of its keys
// and values.
type grouping struct {
	groupOf map[string]int32
	keys    []string
	counts  []int32 // values per group
	ids     []int32 // group of every record, in buffer order
	end     []int32
	values  []string
	order   []int32 // group ids by key, for reduce
}

// group regroups gr over the records of bufs, reusing its storage. A
// first pass counts the records, and validates them, so the per-record
// slices are sized once; a malformed record fails it before any
// grouping.
func (gr *grouping) group(bufs []RecordBuf) error {
	records := 0
	for _, b := range bufs {
		if err := b.Each(func(_, _ []byte) { records++ }); err != nil {
			return err
		}
	}
	if records > math.MaxInt32 {
		return fmt.Errorf("minimr: %d records to group, at most %d fit", records, math.MaxInt32)
	}

	// Every buffer decoded above, so the walks below cannot fail.
	if gr.groupOf == nil {
		gr.groupOf = make(map[string]int32)
	}
	clear(gr.groupOf)
	gr.keys, gr.counts, gr.ids = gr.keys[:0], gr.counts[:0], slices.Grow(gr.ids[:0], records)
	for _, b := range bufs {
		b.Each(func(k, _ []byte) {
			g, ok := gr.groupOf[string(k)]
			if !ok {
				g = int32(len(gr.keys))
				gr.keys = append(gr.keys, string(k))
				gr.groupOf[gr.keys[g]] = g
				gr.counts = append(gr.counts, 0)
			}
			gr.counts[g]++
			gr.ids = append(gr.ids, g)
		})
	}
	pos := slices.Grow(gr.end[:0], len(gr.counts))[:len(gr.counts)] // next free slot of each group
	for g, sum := 0, int32(0); g < len(gr.counts); g++ {
		pos[g] = sum
		sum += gr.counts[g]
	}
	gr.values = slices.Grow(gr.values[:0], records)[:records]
	i := 0
	for _, b := range bufs {
		b.Each(func(_, v []byte) {
			gr.values[pos[gr.ids[i]]] = string(v)
			pos[gr.ids[i]]++
			i++
		})
	}
	gr.end = pos // each group's next free slot is now its end
	return nil
}

// reduce calls the reduce function once per key, in sorted key order.
func (gr *grouping) reduce(reduce Reducer, emit func(key, value string)) {
	gr.order = gr.order[:0]
	for g := range gr.keys {
		gr.order = append(gr.order, int32(g))
	}
	slices.SortFunc(gr.order, func(a, b int32) int { return strings.Compare(gr.keys[a], gr.keys[b]) })
	for _, g := range gr.order {
		end := gr.end[g]
		reduce(gr.keys[g], gr.values[end-gr.counts[g]:end:end], emit)
	}
}

// PartitionOf maps an intermediate key to its reducer index: FNV-1a over
// the key's bytes, inlined so the per-record path allocates nothing
// (pinned equal to hash/fnv by test).
func PartitionOf(key string, numR int) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % uint32(numR))
}
