package minimr

import (
	"cmp"
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
// joins, and for a job with a combiner the grouping the map output is
// filed into as it is emitted. It is pooled, so a worker mapping blocks
// concurrently reuses it too.
type mapScratch struct {
	buf  RecordBuf
	recs []packedRecord
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
// A job with a combiner has each record filed by key as the map emits
// it, into the grouping the reducers use, and the combiner run over each
// key in sorted order, its values in emit order; what the combiner emits
// is partitioned in place of the map output, so each buffer holds its
// keys in sorted order. Every record to partition is packed once into a
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
		s.g.reset(0)
		job.Map(block, s.g.add)
		if err := s.g.layout(); err != nil {
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
// values[end[g]-counts[g]:end[g]], in arrival order. It is a counting
// sort — filing a record numbers its key, counts it and appends its
// value, and layout then moves every value into its group's run of the
// same slice — so no per-key slice grows, and a reused grouping
// allocates only the strings of its keys and values.
type grouping struct {
	groupOf map[string]int32
	keys    []string
	counts  []int32  // values per group
	ids     []int32  // group of every record, in arrival order
	values  []string // in arrival order until layout
	end     []int32
	order   []int32  // group ids by key, for reduce
	prefix  []uint64 // each group's keyPrefix, for reduce
}

// keyPrefix is a key's first eight bytes, zero-padded, as a big-endian
// number. Two keys whose prefixes differ compare as their prefixes do,
// so most of reduce's comparisons read no key bytes.
func keyPrefix(k string) uint64 {
	var p [8]byte
	copy(p[:], k)
	return binary.BigEndian.Uint64(p[:])
}

// reset empties gr for a new grouping, keeping its storage, with room
// for records records.
func (gr *grouping) reset(records int) {
	if gr.groupOf == nil {
		gr.groupOf = make(map[string]int32)
	}
	clear(gr.groupOf)
	gr.keys, gr.counts = gr.keys[:0], gr.counts[:0]
	gr.ids, gr.values = slices.Grow(gr.ids[:0], records), slices.Grow(gr.values[:0], records)
}

// add files one record as it arrives: one hash lookup for a key seen
// since reset. layout then groups the values.
func (gr *grouping) add(k, v string) {
	g, ok := gr.groupOf[k]
	if !ok {
		g = gr.newGroup(k)
	}
	gr.file(g, v)
}

func (gr *grouping) newGroup(k string) int32 {
	g := int32(len(gr.keys))
	gr.keys = append(gr.keys, k)
	gr.groupOf[k] = g
	gr.counts = append(gr.counts, 0)
	return g
}

func (gr *grouping) file(g int32, v string) {
	gr.counts[g]++
	gr.ids = append(gr.ids, g)
	gr.values = append(gr.values, v)
}

// layout groups the filed values in place: each record's slot is its
// group's first plus its rank in the group, and the values move along
// the cycles of that permutation. Only a record count past MaxInt32
// fails it.
func (gr *grouping) layout() error {
	if len(gr.ids) > math.MaxInt32 {
		return fmt.Errorf("minimr: %d records to group, at most %d fit", len(gr.ids), math.MaxInt32)
	}
	gr.end = slices.Grow(gr.end[:0], len(gr.counts))[:len(gr.counts)]
	sum := int32(0)
	for g, c := range gr.counts {
		gr.end[g] = sum
		sum += c
	}
	for i, g := range gr.ids {
		gr.ids[i] = gr.end[g]
		gr.end[g]++ // each group's end once every record is placed
	}
	for i := range gr.ids {
		for j := gr.ids[i]; j != int32(i); j = gr.ids[i] {
			gr.values[i], gr.values[j] = gr.values[j], gr.values[i]
			gr.ids[i], gr.ids[j] = gr.ids[j], j
		}
	}
	return nil
}

// group regroups gr over the records of bufs, reusing its storage, in
// two passes over each buffer. The first counts the records, and
// validates them, so the per-record slices are sized once and a
// malformed record fails it before any grouping; the second files them.
func (gr *grouping) group(bufs []RecordBuf) error {
	records := 0
	for _, b := range bufs {
		if err := b.Each(func(_, _ []byte) { records++ }); err != nil {
			return err
		}
	}
	gr.reset(records)
	// Every buffer decoded above, so this walk cannot fail. It is add
	// with the key looked up as string(k) in place, which allocates
	// nothing for a key already filed.
	for _, b := range bufs {
		b.Each(func(k, v []byte) {
			g, ok := gr.groupOf[string(k)]
			if !ok {
				g = gr.newGroup(string(k))
			}
			gr.file(g, string(v))
		})
	}
	return gr.layout()
}

// reduce calls the reduce function once per key, in sorted key order.
func (gr *grouping) reduce(reduce Reducer, emit func(key, value string)) {
	n := len(gr.keys)
	gr.order, gr.prefix = slices.Grow(gr.order[:0], n)[:n], slices.Grow(gr.prefix[:0], n)[:n]
	for g, k := range gr.keys {
		gr.order[g], gr.prefix[g] = int32(g), keyPrefix(k)
	}
	slices.SortFunc(gr.order, func(a, b int32) int {
		if c := cmp.Compare(gr.prefix[a], gr.prefix[b]); c != 0 {
			return c
		}
		return strings.Compare(gr.keys[a], gr.keys[b])
	})
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
