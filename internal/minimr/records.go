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

// mapScratch is MapBlock's staging area: the map output packed once in
// emit order, and where each record ends and which partition it joins.
// It is pooled, so a worker mapping blocks concurrently reuses it too.
type mapScratch struct {
	buf  RecordBuf
	recs []packedRecord
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
// partition through it, so the two produce identical shuffles. Every
// record is packed once into a reused scratch buffer and then copied to
// its partition; the partitions share one exactly sized backing array,
// each capacity-clipped to its own length, and an empty one is nil.
func MapBlock(job *Job, block []byte) (parts []RecordBuf, bytes []float64) {
	n := max(job.NumReducers, 1)
	parts, bytes = make([]RecordBuf, n), make([]float64, n)
	s := _mapScratch.Get().(*mapScratch)
	defer _mapScratch.Put(s)
	s.buf, s.recs = s.buf[:0], s.recs[:0]
	sizes := make([]int, n) // packed bytes per partition
	job.Map(block, func(k, v string) {
		p := 0
		if n > 1 {
			p = PartitionOf(k, n)
		}
		start := len(s.buf)
		s.buf = s.buf.Append(k, v)
		s.recs = append(s.recs, packedRecord{end: len(s.buf), part: int32(p)})
		sizes[p] += len(s.buf) - start
		bytes[p] += float64(len(k) + len(v) + 2)
	})

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
// the call before reduce runs once. A first pass counts the records, and
// validates them, so the per-record group ids are allocated once at their
// final size. Grouping is then a counting sort by key — one pass numbers
// the distinct keys and counts their values, a second lays every value
// into one shared slice — so no per-key slice grows.
func ReduceBufs(reduce Reducer, bufs []RecordBuf, emit func(key, value string)) error {
	g, err := groupRecords(bufs)
	if err != nil {
		return err
	}
	g.reduce(reduce, emit)
	return nil
}

// grouping is the records of a reducer's buffers grouped by key: group
// g's values are values[end[g]-counts[g]:end[g]], in buffer order.
type grouping struct {
	keys   []string
	counts []int32
	end    []int32
	values []string
}

// groupRecords is ReduceBufs up to the first reduce call.
func groupRecords(bufs []RecordBuf) (*grouping, error) {
	records := 0
	for _, b := range bufs {
		if err := b.Each(func(_, _ []byte) { records++ }); err != nil {
			return nil, err
		}
	}
	if records > math.MaxInt32 {
		return nil, fmt.Errorf("minimr: %d records to reduce, at most %d fit", records, math.MaxInt32)
	}

	// Every buffer decoded above, so the walks below cannot fail.
	groupOf := make(map[string]int32)
	var keys []string
	var counts []int32                 // values per group
	group := make([]int32, 0, records) // group of every record, in buffer order
	for _, b := range bufs {
		b.Each(func(k, _ []byte) {
			g, ok := groupOf[string(k)]
			if !ok {
				g = int32(len(keys))
				keys = append(keys, string(k))
				groupOf[keys[g]] = g
				counts = append(counts, 0)
			}
			counts[g]++
			group = append(group, g)
		})
	}
	pos := make([]int32, len(counts)) // next free slot of each group
	for g, sum := 0, int32(0); g < len(counts); g++ {
		pos[g] = sum
		sum += counts[g]
	}
	values := make([]string, records)
	i := 0
	for _, b := range bufs {
		b.Each(func(_, v []byte) {
			values[pos[group[i]]] = string(v)
			pos[group[i]]++
			i++
		})
	}

	// pos[g] is now the group's end.
	return &grouping{keys: keys, counts: counts, end: pos, values: values}, nil
}

// reduce calls the reduce function once per key, in sorted key order.
func (gr *grouping) reduce(reduce Reducer, emit func(key, value string)) {
	order := make([]int32, len(gr.keys)) // group ids by key
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(gr.keys[a], gr.keys[b]) })
	for _, g := range order {
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
